//! Machine fingerprinting: core count, CPU features, and
//! container-vs-host detection.
//!
//! Recorded numbers (the repo benchmark's result documents,
//! `BENCH_kernels.json`, the server's Stats snapshot) are only
//! comparable across runs when the machine is known — a single-core CI
//! container and an 8-core host produce very different shard/thread
//! scaling, and a kernel timing means little without the CPU it ran on.
//! Each of them therefore embeds a [`MachineFingerprint`], and the
//! core-aware default ([`cores`]) derives from the same detection so
//! "what ran" and "what was recorded" cannot drift apart.

/// What the current machine looks like, as recorded into benchmark
/// artifacts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MachineFingerprint {
    /// Target architecture (compile-time, e.g. `x86_64`, `aarch64`).
    pub arch: &'static str,
    /// Cores visible to this process
    /// ([`std::thread::available_parallelism`]; 1 when undetectable).
    pub cores: usize,
    /// Runtime-detected SIMD feature levels of the CPU (subset of
    /// `sse4.2`, `avx2`, `avx512f`; empty on non-x86-64 targets).
    pub cpu_features: Vec<&'static str>,
    /// Whether the process appears to run inside a container
    /// (`/.dockerenv`, `/run/.containerenv`, or container runtimes named
    /// in `/proc/1/cgroup`). Containers often cap cores below the host's,
    /// which is exactly when a recorded baseline stops being comparable.
    pub container: bool,
}

impl MachineFingerprint {
    /// Detects the current machine.
    pub fn detect() -> Self {
        MachineFingerprint {
            arch: std::env::consts::ARCH,
            cores: cores(),
            cpu_features: cpu_features(),
            container: in_container(),
        }
    }

    /// Renders the fingerprint as a single-line JSON object, e.g.
    /// `{"arch": "x86_64", "cores": 1, "cpu_features": ["sse4.2",
    /// "avx2"], "container": true}`.
    pub fn to_json(&self) -> String {
        let features = self
            .cpu_features
            .iter()
            .map(|f| format!("\"{f}\""))
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"arch\": \"{}\", \"cores\": {}, \"cpu_features\": [{}], \"container\": {}}}",
            self.arch, self.cores, features, self.container
        )
    }
}

/// Cores visible to this process, clamped to at least 1.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// SIMD feature levels of the CPU, detected at runtime (not
/// compile-time): the kernels are portable Rust, so this records what
/// the host offers, which is what makes a recorded timing comparable.
fn cpu_features() -> Vec<&'static str> {
    #[cfg(target_arch = "x86_64")]
    {
        let mut features = Vec::new();
        if std::arch::is_x86_feature_detected!("sse4.2") {
            features.push("sse4.2");
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            features.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            features.push("avx512f");
        }
        features
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Vec::new()
    }
}

/// Best-effort container detection (Linux-centric, conservative: absent
/// evidence means "host").
fn in_container() -> bool {
    if std::path::Path::new("/.dockerenv").exists()
        || std::path::Path::new("/run/.containerenv").exists()
    {
        return true;
    }
    std::fs::read_to_string("/proc/1/cgroup").is_ok_and(|cgroup| {
        ["docker", "containerd", "kubepods", "lxc", "podman"]
            .iter()
            .any(|marker| cgroup.contains(marker))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_is_sane() {
        let m = MachineFingerprint::detect();
        assert!(m.cores >= 1);
        assert!(!m.arch.is_empty());
        // Feature list is ordered weakest-first and duplicate-free.
        let mut sorted = m.cpu_features.clone();
        sorted.dedup();
        assert_eq!(sorted, m.cpu_features);
    }

    #[test]
    fn json_has_every_field() {
        let m = MachineFingerprint {
            arch: "x86_64",
            cores: 4,
            cpu_features: vec!["sse4.2", "avx2"],
            container: true,
        };
        assert_eq!(
            m.to_json(),
            "{\"arch\": \"x86_64\", \"cores\": 4, \
             \"cpu_features\": [\"sse4.2\", \"avx2\"], \"container\": true}"
        );
        let empty = MachineFingerprint {
            arch: "aarch64",
            cores: 1,
            cpu_features: vec![],
            container: false,
        };
        assert!(empty.to_json().contains("\"cpu_features\": []"));
    }

    #[test]
    fn detected_cores_match_helper() {
        assert_eq!(MachineFingerprint::detect().cores, cores());
    }
}
