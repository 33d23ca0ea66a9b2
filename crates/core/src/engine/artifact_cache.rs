//! Content-addressed cache for adapted compile-step outputs.
//!
//! The system-side rebuild replays the same recorded build many times —
//! ablation sweeps, PGO feedback loops, repeated `comt rebuild` runs — and
//! most of that work is re-compiling sources that have not changed under an
//! adapter pipeline that has not changed. The cache keys each compile step
//! on a [`comt_digest::fingerprint`] over everything that determines its
//! outputs:
//!
//! * the **adapted compilation model** (argv, cwd, env) — after the
//!   adapter pipeline ran, so flag changes invalidate naturally;
//! * the **adapter-chain fingerprint** ([`crate::adapters::chain_fingerprint`]) —
//!   configuration that doesn't show up in the argv (e.g. LTO scope) still
//!   invalidates;
//! * the **toolchain identity** and target ISA;
//! * the **content digests of every input file** (sources, headers, and
//!   any `-fprofile-use=` profile), read from the rebuild container.
//!
//! A hit returns the recorded output files verbatim; a warm rebuild with a
//! fully populated cache therefore performs **zero** compile-step
//! executions and still produces a byte-identical rebuild layer.

use comt_digest::Digest;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// The output files one compile step produced: (container path, content).
pub type StepOutputs = Vec<(String, Vec<u8>)>;

/// Everything besides input-file content that identifies one adapted
/// compile step for caching.
#[derive(Debug, Clone, Copy)]
pub struct StepKeyInputs<'a> {
    /// Adapted argv tokens (post adapter pipeline).
    pub argv: &'a [String],
    /// Step working directory.
    pub cwd: &'a str,
    /// Environment as `KEY=VALUE` lines.
    pub env: &'a [String],
    /// Order-sensitive adapter-chain fingerprint.
    pub chain_fp: &'a str,
    /// Toolchain identity (`name@isa`).
    pub toolchain_id: &'a str,
    /// Target ISA.
    pub isa: &'a str,
    /// Canonical GNU target triple ([`crate::crossisa::target_triple`]) —
    /// keeps cross-ISA rebuilds of identical sources from aliasing.
    pub target_triple: &'a str,
}

/// Assemble the content-addressed key for one compile step from its
/// identity plus the content digest of every contributing input file.
pub fn step_key(inputs: &StepKeyInputs<'_>, files: &[(String, Digest)]) -> Digest {
    let argv = inputs.argv.join("\u{1f}");
    let env = inputs.env.join("\u{1f}");
    let mut parts: Vec<Vec<u8>> = vec![
        b"comt-step-v2".to_vec(),
        argv.into_bytes(),
        inputs.cwd.as_bytes().to_vec(),
        env.into_bytes(),
        inputs.chain_fp.as_bytes().to_vec(),
        inputs.toolchain_id.as_bytes().to_vec(),
        inputs.isa.as_bytes().to_vec(),
        inputs.target_triple.as_bytes().to_vec(),
    ];
    for (path, digest) in files {
        parts.push(path.as_bytes().to_vec());
        parts.push(digest.raw().to_vec());
    }
    let refs: Vec<&[u8]> = parts.iter().map(|p| p.as_slice()).collect();
    comt_digest::fingerprint(&refs)
}

/// Target-invariant half of an IR-mode compile step's identity: the
/// adapted invocation plus the content digest of the cached IR object it
/// consumes — deliberately **excluding** the toolchain, ISA, target triple
/// and march. Every retarget of the same extended image shares this key;
/// only [`object_key`] specializes it per back-end target, so the
/// front-end part of the work (IR emission, baked into the cache layer)
/// is paid exactly once across an N-target fan-out.
pub fn ir_step_key(
    argv: &[String],
    cwd: &str,
    env: &[String],
    chain_fp: &str,
    ir_digest: &Digest,
) -> Digest {
    let argv = argv.join("\u{1f}");
    let env = env.join("\u{1f}");
    comt_digest::fingerprint(&[
        b"comt-ir-v1",
        argv.as_bytes(),
        cwd.as_bytes(),
        env.as_bytes(),
        chain_fp.as_bytes(),
        ir_digest.raw(),
    ])
}

/// Per-target half of an IR-mode step's identity: the shared
/// [`ir_step_key`] specialized by everything the back-end replay depends
/// on — toolchain identity, ISA, target triple and the selected
/// march/microarchitecture. Two targets retargeting the same IR get
/// distinct object keys; the same target twice gets a cache hit.
pub fn object_key(
    ir_key: &Digest,
    toolchain_id: &str,
    isa: &str,
    target_triple: &str,
    march: &str,
) -> Digest {
    comt_digest::fingerprint(&[
        b"comt-obj-v1",
        ir_key.raw(),
        toolchain_id.as_bytes(),
        isa.as_bytes(),
        target_triple.as_bytes(),
        march.as_bytes(),
    ])
}

/// Shard count. Keys are content digests, so any byte is uniformly
/// distributed; the first byte picks the shard.
const CACHE_SHARDS: usize = 16;

/// Thread-safe content-addressed store of compile-step outputs. Cheap to
/// clone through an [`Arc`]; shared across engine runs via
/// [`crate::RebuildOptions::artifact_cache`] — and, in `comt buildd`,
/// across every tenant's jobs for the lifetime of the daemon.
///
/// Internally the map is split into [`CACHE_SHARDS`] independently locked
/// shards selected by the first key byte, so concurrent jobs probing and
/// filling the cache from scheduler worker threads don't serialize on one
/// mutex. Residency is unbounded; probes are counted by the engine run
/// that makes them (`cache.hit` / `cache.miss`), not here.
#[derive(Debug)]
pub struct ArtifactCache {
    shards: Vec<Mutex<HashMap<Digest, Arc<StepOutputs>>>>,
}

impl Default for ArtifactCache {
    fn default() -> Self {
        ArtifactCache {
            shards: (0..CACHE_SHARDS).map(|_| Mutex::default()).collect(),
        }
    }
}

impl ArtifactCache {
    /// A fresh shared cache.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    fn shard(&self, key: &Digest) -> MutexGuard<'_, HashMap<Digest, Arc<StepOutputs>>> {
        self.shards[key.raw()[0] as usize % CACHE_SHARDS]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// Look up a step key.
    pub fn get(&self, key: &Digest) -> Option<Arc<StepOutputs>> {
        self.shard(key).get(key).map(Arc::clone)
    }

    /// Store the outputs for a step key.
    pub fn put(&self, key: Digest, outputs: StepOutputs) {
        self.shard(&key).insert(key, Arc::new(outputs));
    }

    /// Number of cached steps across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).len())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every key currently cached, sorted.
    pub fn keys(&self) -> Vec<Digest> {
        let mut keys: Vec<Digest> = self
            .shards
            .iter()
            .flat_map(|s| {
                let shard = s.lock().unwrap_or_else(|e| e.into_inner());
                shard.keys().copied().collect::<Vec<_>>()
            })
            .collect();
        keys.sort();
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_counts_and_roundtrip() {
        let cache = ArtifactCache::new();
        let key = comt_digest::fingerprint(&[b"step"]);
        assert!(cache.get(&key).is_none());

        cache.put(key, vec![("/src/a.o".into(), b"OBJ".to_vec())]);
        let got = cache.get(&key).expect("hit");
        assert_eq!(got[0].0, "/src/a.o");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn step_key_separates_target_triples() {
        // Identical step, identical inputs, different target: the keys must
        // differ or cross-ISA rebuilds of the same sources would alias.
        let argv: Vec<String> = ["gcc", "-O2", "-c", "main.c", "-o", "main.o"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let files = vec![(
            "/src/main.c".to_string(),
            Digest::of(b"int main(){}".as_slice()),
        )];
        let base = StepKeyInputs {
            argv: &argv,
            cwd: "/src",
            env: &[],
            chain_fp: "native-toolchain",
            toolchain_id: "vendor-x86@x86_64",
            isa: "x86_64",
            target_triple: "x86_64-linux-gnu",
        };
        let cross = StepKeyInputs {
            toolchain_id: "vendor-arm@aarch64",
            isa: "aarch64",
            target_triple: "aarch64-linux-gnu",
            ..base
        };
        assert_eq!(step_key(&base, &files), step_key(&base, &files));
        assert_ne!(step_key(&base, &files), step_key(&cross, &files));
        // The triple alone must already separate the keys.
        let triple_only = StepKeyInputs {
            target_triple: "aarch64-linux-gnu",
            ..base
        };
        assert_ne!(step_key(&base, &files), step_key(&triple_only, &files));
    }

    #[test]
    fn ir_key_is_target_invariant_and_object_key_is_not() {
        let argv: Vec<String> = ["gcc", "-O2", "-c", "main.c", "-o", "main.o"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let ir = Digest::of(b"COMT-OBJ 1".as_slice());
        let ik = ir_step_key(&argv, "/src", &[], "native-toolchain", &ir);
        // Deterministic and independent of any target input.
        assert_eq!(ik, ir_step_key(&argv, "/src", &[], "native-toolchain", &ir));
        // The IR content is load-bearing: a different cached object must
        // not alias.
        let other = Digest::of(b"COMT-OBJ 2".as_slice());
        assert_ne!(ik, ir_step_key(&argv, "/src", &[], "native-toolchain", &other));

        // Per-target specialization: only the march differs → different
        // object keys off the same IR key.
        let a = object_key(&ik, "vendor-x86@x86_64", "x86_64", "x86_64-linux-gnu", "x86-64-v2");
        let b = object_key(&ik, "vendor-x86@x86_64", "x86_64", "x86_64-linux-gnu", "x86-64-v3");
        assert_ne!(a, b);
        assert_eq!(
            a,
            object_key(&ik, "vendor-x86@x86_64", "x86_64", "x86_64-linux-gnu", "x86-64-v2")
        );
        // And the object key never collides with the step-key domain.
        assert_ne!(a, ik);
    }

    #[test]
    fn shared_between_threads() {
        let cache = ArtifactCache::new();
        std::thread::scope(|s| {
            for i in 0..8 {
                let cache = Arc::clone(&cache);
                s.spawn(move || {
                    let key = comt_digest::fingerprint(&[format!("step-{i}").as_bytes()]);
                    cache.put(key, vec![]);
                    assert!(cache.get(&key).is_some());
                });
            }
        });
        assert_eq!(cache.len(), 8);
    }
}
