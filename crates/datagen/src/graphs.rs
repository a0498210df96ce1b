//! Sparse labeled graphs with planted edit variants (AIDS-like /
//! Protein-like).
//!
//! The paper's AIDS compounds average 26 vertices / 28 edges with 62
//! vertex and 3 edge labels; Protein structures average 33/56 with 3/5.
//! We keep those *ratios* — AIDS-like: sparse, label-rich; Protein-like:
//! denser, label-poor — at a reduced size: the vertex counts are scaled
//! down so that exact GED verification, whose search grows exponentially
//! with the vertex count, stays tractable for every candidate a query
//! yields. Label-poor graphs make part features unselective,
//! which is exactly the paper's explanation for the small Ring gain on
//! Protein (§8.3).

use crate::rng;
use pigeonring_graph::Graph;
use rand::Rng;

/// Configuration for the labeled-graph generator.
#[derive(Clone, Debug)]
pub struct GraphConfig {
    /// Number of graphs.
    pub count: usize,
    /// Average vertex count.
    pub avg_vertices: usize,
    /// Extra edges beyond the spanning backbone, as a fraction of
    /// vertices (0 ⇒ trees; 1 ⇒ roughly 2·V edges).
    pub extra_edge_frac: f64,
    /// Number of vertex labels.
    pub vlabels: u32,
    /// Number of edge labels.
    pub elabels: u32,
    /// Fraction of graphs that are edited copies of earlier graphs.
    pub dup_frac: f64,
    /// Maximum number of edit operations applied to a copy.
    pub max_edits: usize,
    /// RNG seed.
    pub seed: u64,
}

impl GraphConfig {
    /// AIDS-like: sparse (edges ≈ vertices), many vertex labels, 3 edge
    /// labels.
    pub fn aids_like(count: usize) -> Self {
        GraphConfig {
            count,
            avg_vertices: 16,
            extra_edge_frac: 0.1,
            vlabels: 20,
            elabels: 3,
            dup_frac: 0.4,
            max_edits: 4,
            seed: 0x4149_4453,
        }
    }

    /// Protein-like: denser (edges ≈ 1.7 × vertices), 3 vertex labels,
    /// 5 edge labels.
    pub fn protein_like(count: usize) -> Self {
        GraphConfig {
            count,
            avg_vertices: 12,
            extra_edge_frac: 0.7,
            vlabels: 3,
            elabels: 5,
            dup_frac: 0.4,
            max_edits: 4,
            seed: 0x5052_4f54,
        }
    }

    /// Generates the graphs.
    pub fn generate(&self) -> Vec<Graph> {
        assert!(self.count > 0 && self.avg_vertices >= 3);
        assert!(self.vlabels >= 1 && self.elabels >= 1);
        let mut r = rng(self.seed);
        let mut out: Vec<Graph> = Vec::with_capacity(self.count);
        for i in 0..self.count {
            if i > 0 && r.gen::<f64>() < self.dup_frac {
                let src = out[r.gen_range(0..i)].clone();
                out.push(self.edit(&src, &mut r));
            } else {
                out.push(self.fresh(&mut r));
            }
        }
        out
    }

    fn fresh(&self, r: &mut rand::rngs::SmallRng) -> Graph {
        let n = (self.avg_vertices as i64 + r.gen_range(-2i64..=2)).max(3) as usize;
        let mut g = Graph::new((0..n).map(|_| r.gen_range(0..self.vlabels)).collect());
        // Connected backbone.
        for v in 1..n as u32 {
            let u = r.gen_range(0..v);
            g.add_edge(u, v, r.gen_range(0..self.elabels));
        }
        // Extra edges.
        let extra = (n as f64 * self.extra_edge_frac).round() as usize;
        let mut attempts = 0;
        let mut added = 0;
        while added < extra && attempts < extra * 10 {
            attempts += 1;
            let u = r.gen_range(0..n as u32);
            let v = r.gen_range(0..n as u32);
            if u != v && g.edge_label(u, v).is_none() {
                g.add_edge(u.min(v), u.max(v), r.gen_range(0..self.elabels));
                added += 1;
            }
        }
        g
    }

    /// Applies 1..=max_edits random §2.2 operations (vertex/edge
    /// relabels, edge insert/delete) — the paper builds its Protein
    /// dataset the same way ("duplication and randomly applying minor
    /// errors").
    fn edit(&self, src: &Graph, r: &mut rand::rngs::SmallRng) -> Graph {
        let mut labels = src.vlabels().to_vec();
        let mut edges: Vec<(u32, u32, u32)> = src.edges().collect();
        let ops = r.gen_range(1..=self.max_edits.max(1));
        for _ in 0..ops {
            match r.gen_range(0..4) {
                0 if !labels.is_empty() => {
                    let i = r.gen_range(0..labels.len());
                    labels[i] = r.gen_range(0..self.vlabels);
                }
                1 if !edges.is_empty() => {
                    let i = r.gen_range(0..edges.len());
                    edges[i].2 = r.gen_range(0..self.elabels);
                }
                2 if !edges.is_empty() => {
                    let i = r.gen_range(0..edges.len());
                    edges.swap_remove(i);
                }
                _ => {
                    // Insert an edge if a free slot exists.
                    let n = labels.len() as u32;
                    for _ in 0..8 {
                        let u = r.gen_range(0..n);
                        let v = r.gen_range(0..n);
                        let (u, v) = (u.min(v), u.max(v));
                        if u != v && !edges.iter().any(|&(a, b, _)| (a, b) == (u, v)) {
                            edges.push((u, v, r.gen_range(0..self.elabels)));
                            break;
                        }
                    }
                }
            }
        }
        let mut g = Graph::new(labels);
        for (u, v, l) in edges {
            g.add_edge(u, v, l);
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pigeonring_graph::ged_within;

    #[test]
    fn generates_requested_shape() {
        let cfg = GraphConfig::aids_like(50);
        let data = cfg.generate();
        assert_eq!(data.len(), 50);
        let avg_v: f64 = data.iter().map(|g| g.num_vertices() as f64).sum::<f64>() / 50.0;
        assert!((12.0..20.0).contains(&avg_v), "avg vertices {avg_v}");
    }

    #[test]
    fn protein_like_is_denser_and_label_poor() {
        let a = GraphConfig::aids_like(40).generate();
        let p = GraphConfig::protein_like(40).generate();
        let density = |gs: &[Graph]| {
            gs.iter()
                .map(|g| g.num_edges() as f64 / g.num_vertices() as f64)
                .sum::<f64>()
                / gs.len() as f64
        };
        assert!(density(&p) > density(&a));
        let distinct_vlabels = |gs: &[Graph]| {
            let mut s = std::collections::HashSet::new();
            for g in gs {
                s.extend(g.vlabels().iter().copied());
            }
            s.len()
        };
        assert!(distinct_vlabels(&a) > distinct_vlabels(&p));
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = GraphConfig::protein_like(30);
        assert_eq!(cfg.generate(), cfg.generate());
    }

    #[test]
    fn planted_variants_are_within_ged_budget() {
        let cfg = GraphConfig::aids_like(60);
        let data = cfg.generate();
        // Some pair must be within GED 4 (the planted edits).
        let mut found = false;
        'outer: for i in 0..data.len() {
            for j in i + 1..data.len() {
                if ged_within(&data[i], &data[j], 4).is_some() {
                    found = true;
                    break 'outer;
                }
            }
        }
        assert!(found, "expected planted edit variants within τ = 4");
    }
}
