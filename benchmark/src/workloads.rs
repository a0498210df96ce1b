//! The four workloads. Each is a closed loop (a caller sends its next
//! request only after a reply), checks every reply against the oracle, and
//! returns what `stats` needs to estimate throughput and median latency.
//!
//! Work comes in *units* that are repeated unchanged: the first
//! [`UNIT_QUERIES`] queries of a domain (`tcp_mixed`: one cycle of every
//! connection through its share of the graph queries). A stream runs an
//! unmeasured warm-up over all its queries, times it, and then repeats its
//! unit as often as fills its share of `--seconds`, at least
//! [`MIN_REPS`] times; the serial streams take turns ([`rotate`]), so only
//! one domain is in flight at a time but each one's repetitions span the
//! whole run.

use std::cell::RefCell;
use std::sync::Barrier;
use std::time::Instant;

use pigeonring_server::{Client, DomainQuery, Outcome};
use pigeonring_service::{SearchEngine, ShardedIndex, WorkerPool};

use crate::domains::{DomainBench, ParamsOf, ScratchOf};
use crate::oracle::Checker;
use crate::spans::Span;
use crate::stats::{best_of, median, Estimate, Repeated};

/// Queries per `search_batch_on` call in the `sharded` workload.
pub const SHARDED_BATCH: usize = 16;
/// Connections (one generator thread each) of `tcp_mixed`: `nproc` here.
pub const MIXED_CONNS: usize = 2;
/// Requests in flight per connection in `tcp_mixed`.
pub const MIXED_WINDOW: usize = 4;
/// Request ids are `domain index × this + query index`.
pub const REQUEST_ID_STRIDE: u64 = 1_000_000;
/// Fewest measured repetitions of a unit.
pub const MIN_REPS: usize = 5;
/// Rounds the serial streams' repetitions are dealt out over.
pub const TURNS: usize = 5;
/// Most queries in a serial stream's measured unit: the warm-up covers
/// every query, the repetitions the first this many. Shorter units mean
/// more repetitions in the same time, and the per-request minimum over
/// them is what rejects interference (32 batches of [`SHARDED_BATCH`]).
pub const UNIT_QUERIES: usize = 512;

/// How much work a stream does.
#[derive(Clone, Copy, Debug)]
pub enum Units {
    /// A warm-up, then as many measured repetitions as fill `budget_s`.
    Calibrated {
        /// Seconds this stream should measure for.
        budget_s: f64,
    },
    /// Exactly this many unmeasured and measured repetitions.
    Fixed {
        /// Unmeasured repetitions first.
        warm: usize,
        /// Then measured ones.
        measured: usize,
    },
}

/// What every workload needs besides its inputs.
pub struct Ctx<'a> {
    /// Zero of all sample and span clocks.
    pub epoch: Instant,
    /// Counts attempted and failed replies.
    pub checker: &'a Checker,
    /// Record one span per measured request (the traced run).
    pub traced: bool,
    /// Smoke mode: a single measured repetition.
    pub quick: bool,
}

impl Ctx<'_> {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// One domain stream's outcome.
#[derive(Default)]
pub struct StreamRun {
    /// Throughput and median latency (`None` if nothing was measured).
    pub estimate: Option<Estimate>,
    /// Every measured latency, for the tail percentile.
    pub lat_ns: Vec<u64>,
    /// The first reply received for each query, in query order.
    pub answers: Vec<Vec<u32>>,
    /// One span per measured request when traced.
    pub spans: Vec<Span>,
}

/// Measured repetitions for a calibrated stream: as many as fill the
/// budget, at least [`MIN_REPS`] (one repetition in smoke mode).
pub fn measured_reps(budget_s: f64, unit_s: f64, quick: bool) -> usize {
    if quick {
        return 1;
    }
    ((budget_s / unit_s.max(1e-9)).round() as usize).max(MIN_REPS)
}

/// Requests in a measured unit: whole requests up to [`UNIT_QUERIES`]
/// queries (at least one).
fn unit_len(weights: &[u32]) -> usize {
    let mut queries = 0;
    weights
        .iter()
        .take_while(|&&w| {
            queries += w as usize;
            queries <= UNIT_QUERIES
        })
        .count()
        .max(1)
        .min(weights.len())
}

/// Performs request `j` of a stream: sends it, checks the reply (storing
/// the ids per query in the slice when given one) and returns when it was
/// sent and when it completed.
type Issue<'a> = Box<dyn FnMut(usize, Option<&mut [Vec<u32>]>) -> Result<(u64, u64), String> + 'a>;

/// A serial stream: one domain, one request (or batch) in flight. The
/// warm-up covers every request, the measured unit the first
/// [`UNIT_QUERIES`] queries' worth.
pub struct Stream<'a> {
    span_name: &'static str,
    /// Request id of each request (its first query's).
    request_ids: Vec<u64>,
    /// Queries each request answers.
    weights: Vec<u32>,
    issue: Issue<'a>,
    /// First reply per query; filled by the first pass of all.
    answers: Vec<Vec<u32>>,
    captured: bool,
    /// Measured repetitions planned by the warm-up.
    reps: usize,
    observed: Repeated,
    spans: Vec<Span>,
}

impl<'a> Stream<'a> {
    fn new(
        span_name: &'static str,
        request_ids: Vec<u64>,
        weights: Vec<u32>,
        issue: Issue<'a>,
    ) -> Stream<'a> {
        let queries = weights.iter().map(|&w| w as usize).sum();
        Stream {
            span_name,
            request_ids,
            observed: Repeated::new(weights[..unit_len(&weights)].to_vec()),
            weights,
            issue,
            answers: vec![Vec::new(); queries],
            captured: false,
            reps: 0,
            spans: Vec::new(),
        }
    }

    /// One request per query of domain `domain_index`.
    fn per_query(
        span_name: &'static str,
        domain_index: usize,
        queries: usize,
        issue: Issue<'a>,
    ) -> Stream<'a> {
        let base = domain_index as u64 * REQUEST_ID_STRIDE;
        let ids = (0..queries as u64).map(|i| base + i).collect();
        Stream::new(span_name, ids, vec![1; queries], issue)
    }

    /// Requests in the measured unit.
    fn unit_len(&self) -> usize {
        self.observed.weights.len()
    }

    /// One pass: every request when unmeasured, the unit when measured.
    fn pass(&mut self, measured: bool, ctx: &Ctx<'_>) -> Result<(), String> {
        let requests = if measured {
            self.unit_len()
        } else {
            self.weights.len()
        };
        let capture = !std::mem::replace(&mut self.captured, true);
        let mut previous = ctx.now_ns();
        for j in 0..requests {
            let slots = capture.then_some(&mut self.answers[..]);
            let (sent, done) = (self.issue)(j, slots)?;
            if measured {
                self.observed.push(done - sent, done - previous);
                if ctx.traced {
                    self.spans.push(Span {
                        name: self.span_name,
                        request_id: self.request_ids[j],
                        parent: None,
                        start_ns: sent,
                        end_ns: done,
                    });
                }
            }
            previous = done;
        }
        Ok(())
    }

    /// Runs the unmeasured passes and plans the measured repetitions.
    fn warm_up(&mut self, units: Units, ctx: &Ctx<'_>) -> Result<(), String> {
        self.reps = match units {
            Units::Fixed { warm, measured } => {
                for _ in 0..warm {
                    self.pass(false, ctx)?;
                }
                measured
            }
            Units::Calibrated { budget_s } => {
                let start = Instant::now();
                self.pass(false, ctx)?;
                let share = self.unit_len() as f64 / self.weights.len().max(1) as f64;
                measured_reps(budget_s, start.elapsed().as_secs_f64() * share, ctx.quick)
            }
        };
        Ok(())
    }

    /// Runs turn `turn` of `turns`: its share of the planned repetitions.
    fn turn(&mut self, turn: usize, turns: usize, ctx: &Ctx<'_>) -> Result<(), String> {
        for _ in self.reps * turn / turns..self.reps * (turn + 1) / turns {
            self.pass(true, ctx)?;
        }
        Ok(())
    }

    fn finish(self) -> StreamRun {
        // A batch's latency is the latency of each of its queries.
        let lat_ns = self
            .observed
            .lat_ns
            .iter()
            .zip(self.observed.weights.iter().cycle())
            .flat_map(|(&lat, &w)| std::iter::repeat_n(lat, w as usize))
            .collect();
        StreamRun {
            estimate: self.observed.estimate(),
            lat_ns,
            answers: self.answers,
            spans: self.spans,
        }
    }
}

/// Runs serial streams one domain at a time, in [`TURNS`] rounds:
/// all warm-ups first, then every stream's share of its repetitions per
/// round. Only one stream is ever in flight, but each one's repetitions
/// are spread over the whole run, so an interference episode of a few
/// seconds cannot cover all repetitions of any request.
pub fn rotate(
    mut streams: Vec<Stream<'_>>,
    units: &[Units],
    ctx: &Ctx<'_>,
) -> Result<Vec<StreamRun>, String> {
    for (stream, &units) in streams.iter_mut().zip(units) {
        stream.warm_up(units, ctx)?;
    }
    for turn in 0..TURNS {
        for stream in &mut streams {
            stream.turn(turn, TURNS, ctx)?;
        }
    }
    Ok(streams.into_iter().map(Stream::finish).collect())
}

/// `direct`: one thread calls the unsharded engine's `&self` search entry
/// point, one query at a time.
pub fn direct<'a, D: DomainBench>(
    domain_index: usize,
    engine: &'a D::Engine,
    queries: &'a [D::Record],
    expected: &'a [Vec<u32>],
    params: ParamsOf<D>,
    ctx: &'a Ctx<'a>,
) -> Stream<'a> {
    let mut scratch = ScratchOf::<D>::default();
    let issue: Issue<'a> = Box::new(move |j, answers| {
        let mut ids = Vec::new();
        let sent = ctx.now_ns();
        engine.search_into(&mut scratch, &queries[j], &params, &mut ids);
        let done = ctx.now_ns();
        ctx.checker.check(&ids, &expected[j]);
        if let Some(answers) = answers {
            answers[j] = ids;
        }
        Ok((sent, done))
    });
    Stream::per_query("engine.search", domain_index, queries.len(), issue)
}

/// `sharded`: one caller thread drives a `ShardedIndex` through
/// `search_batch_on` on an explicit pool, [`SHARDED_BATCH`] queries per
/// call. A query's latency is the wall time of the call containing it.
pub fn sharded<'a, D: DomainBench>(
    domain_index: usize,
    index: &'a ShardedIndex<D::Engine>,
    pool: &'a WorkerPool,
    queries: &'a [D::Record],
    expected: &'a [Vec<u32>],
    params: ParamsOf<D>,
    ctx: &'a Ctx<'a>,
) -> Stream<'a> {
    let base = domain_index as u64 * REQUEST_ID_STRIDE;
    let batches: Vec<&[D::Record]> = queries.chunks(SHARDED_BATCH).collect();
    let request_ids = (0..batches.len())
        .map(|b| base + (b * SHARDED_BATCH) as u64)
        .collect();
    let weights = batches.iter().map(|b| b.len() as u32).collect();
    let issue: Issue<'a> = Box::new(move |b, mut answers| {
        let sent = ctx.now_ns();
        let results = index.search_batch_on(pool, batches[b], &params);
        let done = ctx.now_ns();
        for (j, result) in results.into_iter().enumerate() {
            let i = b * SHARDED_BATCH + j;
            ctx.checker.check(&result.ids, &expected[i]);
            if let Some(answers) = answers.as_mut() {
                answers[i] = result.ids;
            }
        }
        Ok((sent, done))
    });
    Stream::new("service.search", request_ids, weights, issue)
}

/// One domain's queries as the TCP workloads send them.
pub struct TcpDomain<'a> {
    /// Position in `Domain::ALL`.
    pub index: usize,
    /// Wire form of every query.
    pub wire: &'a [DomainQuery],
    /// Expected ids of every query.
    pub expected: &'a [Vec<u32>],
}

impl TcpDomain<'_> {
    /// Queries connection `conn` of `conns` owns: indices `conn`,
    /// `conn + conns`, ….
    fn share(&self, conn: usize, conns: usize) -> usize {
        (self.wire.len() + conns - 1 - conn) / conns
    }
}

/// Unwraps a reply into its id list; anything else is a failed request.
fn reply_ids(outcome: Outcome) -> Option<Vec<u32>> {
    match outcome {
        Outcome::Results(ids) | Outcome::Explained { ids, .. } => Some(ids),
        Outcome::Busy | Outcome::Failed { .. } => None,
    }
}

/// `tcp_solo`: one connection, one request in flight, one domain at a
/// time — every request pays the whole server path and nothing else
/// competes with it. The four domain streams share the connection.
pub fn tcp_solo<'a>(
    client: &'a RefCell<&mut Client>,
    dom: &'a TcpDomain<'a>,
    ctx: &'a Ctx<'a>,
) -> Stream<'a> {
    let issue: Issue<'a> = Box::new(move |j, answers| {
        let mut client = client.borrow_mut();
        let query = dom.wire[j].clone();
        let sent = ctx.now_ns();
        let id = client.send_query(query).map_err(|e| e.to_string())?;
        let (got_id, outcome) = client.recv_reply().map_err(|e| e.to_string())?;
        let done = ctx.now_ns();
        if got_id != id {
            return Err(format!("reply for request {got_id}, expected {id}"));
        }
        match reply_ids(outcome) {
            Some(ids) => {
                ctx.checker.check(&ids, &dom.expected[j]);
                if let Some(answers) = answers {
                    answers[j] = ids;
                }
            }
            None => ctx.checker.fail(),
        }
        Ok((sent, done))
    });
    Stream::per_query("net.roundtrip", dom.index, dom.wire.len(), issue)
}

/// What one connection of `tcp_mixed` saw over one block of rounds.
#[derive(Default)]
struct Block {
    /// Wall time of the block on this connection.
    wall_ns: u64,
    /// Latencies per domain slot.
    lat_ns: Vec<Vec<u64>>,
    /// Captured `(domain slot, query index, ids)`.
    answers: Vec<(usize, usize, Vec<u32>)>,
    /// `(domain slot, span)` per measured request when traced.
    spans: Vec<(usize, Span)>,
}

/// One connection of `tcp_mixed` over rounds `rounds.0 .. rounds.1`: each
/// round sends one query of every domain (connection `conn` starts the
/// cycle `2 × conn` domains in), [`MIXED_WINDOW`] requests in flight; the
/// window drains before the block ends.
fn mixed_block(
    client: &mut Client,
    doms: &[TcpDomain<'_>],
    (conn, conns): (usize, usize),
    rounds: (usize, usize),
    measured: bool,
    capture: bool,
    ctx: &Ctx<'_>,
) -> Result<Block, String> {
    let nd = doms.len();
    let mut block = Block {
        lat_ns: vec![Vec::new(); nd],
        ..Block::default()
    };
    let total = (rounds.1 - rounds.0) * nd;
    // (wire id, domain slot, query index, sent_ns)
    let mut in_flight: Vec<(u64, usize, usize, u64)> = Vec::with_capacity(MIXED_WINDOW);
    let (mut next, mut done) = (0usize, 0usize);
    let start = ctx.now_ns();
    while done < total {
        while in_flight.len() < MIXED_WINDOW && next < total {
            let round = rounds.0 + next / nd;
            let slot = (next % nd + 2 * conn) % nd;
            let dom = &doms[slot];
            let qi = conn + conns * (round % dom.share(conn, conns));
            let query = dom.wire[qi].clone();
            let sent = ctx.now_ns();
            let id = client.send_query(query).map_err(|e| e.to_string())?;
            in_flight.push((id, slot, qi, sent));
            next += 1;
        }
        let (got_id, outcome) = client.recv_reply().map_err(|e| e.to_string())?;
        let done_ns = ctx.now_ns();
        let pos = in_flight
            .iter()
            .position(|&(id, ..)| id == got_id)
            .ok_or_else(|| format!("reply for unknown request {got_id}"))?;
        let (_, slot, qi, sent) = in_flight.swap_remove(pos);
        done += 1;
        let dom = &doms[slot];
        let Some(ids) = reply_ids(outcome) else {
            ctx.checker.fail();
            continue;
        };
        ctx.checker.check(&ids, &dom.expected[qi]);
        if measured {
            block.lat_ns[slot].push(done_ns - sent);
            if ctx.traced {
                let span = Span {
                    name: "net.roundtrip",
                    request_id: dom.index as u64 * REQUEST_ID_STRIDE + qi as u64,
                    parent: None,
                    start_ns: sent,
                    end_ns: done_ns,
                };
                block.spans.push((slot, span));
            }
        }
        if capture {
            block.answers.push((slot, qi, ids));
        }
    }
    block.wall_ns = ctx.now_ns() - start;
    Ok(block)
}

/// Runs `per_conn` on one scoped thread per connection, released together
/// by a barrier, and returns their outputs and the slowest thread's time.
fn on_connections<T: Send>(
    clients: &mut [Client],
    per_conn: impl Fn(&mut Client, usize) -> Result<T, String> + Sync,
) -> Result<(Vec<T>, f64), String> {
    let barrier = Barrier::new(clients.len());
    let results: Vec<Result<(T, f64), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(conn, client)| {
                let (barrier, per_conn) = (&barrier, &per_conn);
                scope.spawn(move || {
                    barrier.wait();
                    let start = Instant::now();
                    per_conn(client, conn).map(|out| (out, start.elapsed().as_secs_f64()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("generator thread panicked".to_string()))
            })
            .collect()
    });
    let mut outs = Vec::new();
    let mut slowest: f64 = 0.0;
    for r in results {
        let (out, secs) = r?;
        outs.push(out);
        slowest = slowest.max(secs);
    }
    Ok((outs, slowest))
}

/// `tcp_mixed`: every connection in `clients` × window [`MIXED_WINDOW`],
/// each cycling through all domains so heavy and cheap queries are always
/// in flight together. The warm-up sends every query once (a full pass);
/// the measured unit is the first cycle through the connection's share of
/// the last (graph) domain, repeated: per repetition one throughput and
/// one median latency per domain, and the best repetition is reported.
pub fn tcp_mixed(
    clients: &mut [Client],
    doms: &[TcpDomain<'_>],
    units: Units,
    ctx: &Ctx<'_>,
) -> Result<Vec<StreamRun>, String> {
    let last = doms.last().ok_or("no domains")?;
    let conns = clients.len();
    let unit_rounds = |conn: usize| last.share(conn, conns).max(1);
    let largest = doms.iter().map(|d| d.share(0, conns)).max().unwrap_or(1);
    let pass_units = largest.div_ceil(unit_rounds(0));
    let warm = match units {
        Units::Fixed { warm, .. } => warm,
        Units::Calibrated { .. } => pass_units,
    };
    let (warm_blocks, warm_s) = on_connections(clients, |client, conn| {
        let rounds = (0, warm * unit_rounds(conn));
        mixed_block(client, doms, (conn, conns), rounds, false, true, ctx)
    })?;
    let reps = match units {
        Units::Fixed { measured, .. } => measured,
        Units::Calibrated { budget_s } => {
            measured_reps(budget_s, warm_s / warm.max(1) as f64, ctx.quick)
        }
    };
    let (measured_blocks, _) = on_connections(clients, |client, conn| {
        let rounds = (0, unit_rounds(conn));
        (0..reps)
            .map(|rep| {
                let capture = warm == 0 && rep == 0;
                mixed_block(client, doms, (conn, conns), rounds, true, capture, ctx)
            })
            .collect::<Result<Vec<Block>, String>>()
    })?;

    let mut runs: Vec<StreamRun> = doms
        .iter()
        .map(|dom| StreamRun {
            answers: vec![Vec::new(); dom.wire.len()],
            ..StreamRun::default()
        })
        .collect();
    let captured = warm_blocks
        .iter()
        .chain(measured_blocks.iter().flatten())
        .flat_map(|block| &block.answers);
    for (slot, qi, ids) in captured {
        if runs[*slot].answers[*qi].is_empty() {
            runs[*slot].answers[*qi] = ids.clone();
        }
    }
    for (slot, run) in runs.iter_mut().enumerate() {
        let (mut qps, mut p50_us) = (Vec::new(), Vec::new());
        for rep in 0..reps {
            let mut rate = 0.0;
            let mut lats: Vec<f64> = Vec::new();
            for conn_blocks in &measured_blocks {
                let block = &conn_blocks[rep];
                rate += block.lat_ns[slot].len() as f64 / (block.wall_ns.max(1) as f64 / 1e9);
                lats.extend(block.lat_ns[slot].iter().map(|&ns| ns as f64 / 1e3));
                run.lat_ns.extend(&block.lat_ns[slot]);
            }
            qps.push(rate);
            p50_us.push(median(&lats));
        }
        run.estimate = match (best_of(&qps, true), best_of(&p50_us, false)) {
            (Some(qps), Some(p50_us)) => Some(Estimate { qps, p50_us }),
            _ => None,
        };
    }
    for (slot, span) in measured_blocks.into_iter().flatten().flat_map(|b| b.spans) {
        runs[slot].spans.push(span);
    }
    Ok(runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_repetitions_fill_the_budget_but_are_at_least_five() {
        assert_eq!(measured_reps(4.8, 0.7, false), 7);
        assert_eq!(measured_reps(1.2, 0.012, false), 100);
        // A unit longer than the budget is still repeated five times.
        assert_eq!(measured_reps(1.0, 3.0, false), 5);
        assert_eq!(measured_reps(12.0, 1.3, false), 9);
        assert_eq!(measured_reps(12.0, 1.3, true), 1);
    }

    #[test]
    fn connections_split_a_domain_evenly() {
        let wire: Vec<DomainQuery> = (0..5)
            .map(|_| DomainQuery::Edit {
                query: b"x".to_vec(),
                l: 1,
            })
            .collect();
        let dom = TcpDomain {
            index: 1,
            wire: &wire,
            expected: &[],
        };
        assert_eq!((dom.share(0, 2), dom.share(1, 2)), (3, 2));
        assert_eq!(dom.share(0, 1), 5);
    }

    #[test]
    fn serial_streams_rotate_and_capture_their_first_pass() {
        let checker = Checker::default();
        let ctx = Ctx {
            epoch: Instant::now(),
            checker: &checker,
            traced: true,
            quick: false,
        };
        let calls = RefCell::new(Vec::new());
        let stream = |name: &'static str, domain: usize, queries: usize| {
            let calls = &calls;
            let issue: Issue<'_> = Box::new(move |j, answers| {
                calls.borrow_mut().push((name, j, answers.is_some()));
                if let Some(answers) = answers {
                    answers[j] = vec![j as u32];
                }
                let t = calls.borrow().len() as u64 * 10;
                Ok((t, t + 5))
            });
            Stream::per_query(name, domain, queries, issue)
        };
        let units = Units::Fixed {
            warm: 1,
            measured: 5,
        };
        let runs = rotate(
            vec![stream("a", 2, 3), stream("b", 3, 2)],
            &[units; 2],
            &ctx,
        )
        .unwrap();
        let calls = calls.into_inner();
        // Warm-ups first (captured), then five rounds of a, b, a, b, ….
        assert_eq!(calls.len(), 3 + 2 + 5 * (3 + 2));
        assert!(calls[..5].iter().all(|&(_, _, captured)| captured));
        assert!(calls[5..].iter().all(|&(_, _, captured)| !captured));
        let order: Vec<&str> = calls[5..].iter().map(|c| c.0).collect();
        assert_eq!(
            order[..10],
            ["a", "a", "a", "b", "b", "a", "a", "a", "b", "b"]
        );
        assert_eq!(runs[0].lat_ns, vec![5; 15]);
        assert_eq!(runs[0].answers, vec![vec![0], vec![1], vec![2]]);
        assert_eq!(runs[0].spans.len(), 15);
        assert_eq!(runs[0].spans[4].request_id, 2 * REQUEST_ID_STRIDE + 1);
        assert_eq!(runs[1].estimate.unwrap().p50_us.value, 0.005);
    }

    #[test]
    fn long_streams_measure_a_unit_and_repetitions_split_over_turns() {
        let issue: Issue<'_> = Box::new(|_, _| Ok((0, 1)));
        let mut long = Stream::per_query("x", 0, 2000, issue);
        assert_eq!(long.unit_len(), UNIT_QUERIES);
        long.reps = 7;
        let per_turn: Vec<usize> = (0..TURNS)
            .map(|t| long.reps * (t + 1) / TURNS - long.reps * t / TURNS)
            .collect();
        assert_eq!(per_turn.iter().sum::<usize>(), 7);
        assert!(per_turn.iter().all(|&r| r >= 1));
    }
}
