//! Simulated binary artifact formats.
//!
//! Compiled outputs are structured records serialized into the virtual
//! filesystem with magic headers (`COMT-OBJ`, `COMT-AR`, `COMT-BIN`), the
//! stand-ins for ELF objects, `ar` archives and executables/shared objects.
//! They carry exactly the information the rest of the system consumes:
//! symbol tables, target/ISA provenance, optimization provenance (toolchain,
//! `-O` level, vector width, LTO/PGO state) and accumulated kernel
//! parameters for the performance model.
//!
//! The serialization is a deliberate from-scratch line format (not serde):
//! it plays the role of an object-file format, including being inspectable
//! with `strings`-like tooling.

use std::collections::BTreeMap;
use std::fmt;

const OBJ_MAGIC: &str = "COMT-OBJ 1";
const AR_MAGIC: &str = "COMT-AR 1";
const BIN_MAGIC: &str = "COMT-BIN 1";

/// PGO state of an artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PgoMode {
    #[default]
    None,
    /// Built with `-fprofile-generate`: running it emits a profile.
    Instrumented,
    /// Built with `-fprofile-use`: profile-guided layout applied.
    Optimized,
}

impl fmt::Display for PgoMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PgoMode::None => "none",
            PgoMode::Instrumented => "instrumented",
            PgoMode::Optimized => "optimized",
        };
        write!(f, "{s}")
    }
}

fn parse_pgo(s: &str) -> PgoMode {
    match s {
        "instrumented" => PgoMode::Instrumented,
        "optimized" => PgoMode::Optimized,
        _ => PgoMode::None,
    }
}

/// Accumulated performance-kernel parameters (summed across objects).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct KernelParams(pub BTreeMap<String, f64>);

impl KernelParams {
    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// Merge another set by summation (objects contribute additively).
    pub fn absorb(&mut self, other: &KernelParams) {
        for (k, v) in &other.0 {
            *self.0.entry(k.clone()).or_insert(0.0) += v;
        }
    }
}

/// Target the code was generated for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TargetInfo {
    pub isa: String,
    /// Effective `-march` after resolving `native`.
    pub march: String,
}

/// Optimization provenance of generated code.
#[derive(Debug, Clone, PartialEq)]
pub struct OptProvenance {
    /// Toolchain identity string (e.g. `gcc-13`, `llvm-18`, `vendor-x86`).
    pub toolchain: String,
    /// Scalar codegen quality (toolchain quality × opt-level factor).
    pub codegen_quality: f64,
    /// `-O` suffix as given (`"2"`, `"3"`, `"fast"`, …).
    pub opt_level: String,
    /// Effective SIMD width in f64 lanes for this march.
    pub vector_width: u32,
    pub fast_math: bool,
    pub openmp: bool,
    /// Object carries IR usable for link-time optimization.
    pub lto_ir: bool,
    pub pgo: PgoMode,
}

impl Default for OptProvenance {
    fn default() -> Self {
        OptProvenance {
            toolchain: "gcc-13".to_string(),
            codegen_quality: 1.0,
            opt_level: "0".to_string(),
            vector_width: 2,
            fast_math: false,
            openmp: false,
            lto_ir: false,
            pgo: PgoMode::None,
        }
    }
}

/// A relocatable object file.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ObjectFile {
    /// Source path it was compiled from.
    pub source_path: String,
    /// Digest of the source content (`sha256:…`).
    pub source_digest: String,
    /// Source language (`c`, `c++`, `fortran`).
    pub lang: String,
    /// Symbols defined.
    pub defined: Vec<String>,
    /// Internal symbols referenced but not defined.
    pub undefined: Vec<String>,
    /// External namespaced symbols (`ns:name`).
    pub externs: Vec<String>,
    pub target: Option<TargetInfo>,
    pub opt: OptProvenance,
    pub kernel: KernelParams,
}

/// A static archive of objects.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Archive {
    /// `(member name, object)` pairs in insertion order.
    pub members: Vec<(String, ObjectFile)>,
}

/// Kind of linked output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinKind {
    Executable,
    SharedObject,
}

/// A linked executable or shared object.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkedBinary {
    pub kind: BinKind,
    pub defined: Vec<String>,
    /// External namespaced symbols satisfied by shared libraries at runtime.
    pub externs: Vec<String>,
    /// Library names linked (`m`, `mpi`, `openblas`, …).
    pub needed_libs: Vec<String>,
    /// Source paths of the objects linked in (provenance).
    pub objects: Vec<String>,
    pub target: Option<TargetInfo>,
    /// Aggregated provenance: conservative combination over all objects.
    pub opt: OptProvenance,
    /// Whole-program LTO was applied at link time.
    pub lto_applied: bool,
    /// A post-link binary layout optimizer (BOLT-style) reordered the
    /// code using a runtime profile.
    pub layout_optimized: bool,
    /// Summed kernel parameters of all linked objects.
    pub kernel: KernelParams,
}

/// Any artifact, for format-sniffing readers.
#[derive(Debug, Clone, PartialEq)]
pub enum Artifact {
    Object(ObjectFile),
    Archive(Archive),
    Linked(LinkedBinary),
}

/// Artifact decode error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactError {
    /// Not a COMT artifact (opaque bytes, e.g. a package-provided library).
    NotAnArtifact,
    /// Magic found but the body is malformed.
    Malformed(String),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::NotAnArtifact => write!(f, "not a COMT artifact"),
            ArtifactError::Malformed(e) => write!(f, "malformed artifact: {e}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

// ---- serialization ------------------------------------------------------

fn write_opt(out: &mut String, opt: &OptProvenance) {
    out.push_str(&format!("toolchain={}\n", opt.toolchain));
    out.push_str(&format!("quality={}\n", opt.codegen_quality));
    out.push_str(&format!("opt={}\n", opt.opt_level));
    out.push_str(&format!("vector={}\n", opt.vector_width));
    out.push_str(&format!("fast-math={}\n", opt.fast_math as u8));
    out.push_str(&format!("openmp={}\n", opt.openmp as u8));
    out.push_str(&format!("lto-ir={}\n", opt.lto_ir as u8));
    out.push_str(&format!("pgo={}\n", opt.pgo));
}

fn write_target(out: &mut String, t: &Option<TargetInfo>) {
    if let Some(t) = t {
        out.push_str(&format!("isa={}\n", t.isa));
        out.push_str(&format!("march={}\n", t.march));
    }
}

fn write_kernel(out: &mut String, k: &KernelParams) {
    for (key, v) in &k.0 {
        out.push_str(&format!("kernel.{key}={v}\n"));
    }
}

fn obj_body(o: &ObjectFile) -> String {
    let mut s = String::new();
    s.push_str(&format!("source={}\n", o.source_path));
    s.push_str(&format!("source-digest={}\n", o.source_digest));
    s.push_str(&format!("lang={}\n", o.lang));
    write_target(&mut s, &o.target);
    write_opt(&mut s, &o.opt);
    for d in &o.defined {
        s.push_str(&format!("def={d}\n"));
    }
    for u in &o.undefined {
        s.push_str(&format!("und={u}\n"));
    }
    for e in &o.externs {
        s.push_str(&format!("ext={e}\n"));
    }
    write_kernel(&mut s, &o.kernel);
    s
}

/// Serialize an object file.
pub fn write_object(o: &ObjectFile) -> Vec<u8> {
    format!("{OBJ_MAGIC}\n{}", obj_body(o)).into_bytes()
}

/// Serialize an archive.
pub fn write_archive_artifact(a: &Archive) -> Vec<u8> {
    let mut s = format!("{AR_MAGIC}\n");
    for (name, obj) in &a.members {
        let body = obj_body(obj);
        s.push_str(&format!("member {} {}\n{}", name, body.len(), body));
    }
    s.into_bytes()
}

/// Serialize a linked binary.
pub fn write_linked(b: &LinkedBinary) -> Vec<u8> {
    let mut s = format!("{BIN_MAGIC}\n");
    s.push_str(&format!(
        "kind={}\n",
        match b.kind {
            BinKind::Executable => "exe",
            BinKind::SharedObject => "so",
        }
    ));
    write_target(&mut s, &b.target);
    write_opt(&mut s, &b.opt);
    s.push_str(&format!("lto-applied={}\n", b.lto_applied as u8));
    s.push_str(&format!("layout-optimized={}\n", b.layout_optimized as u8));
    for d in &b.defined {
        s.push_str(&format!("def={d}\n"));
    }
    for e in &b.externs {
        s.push_str(&format!("ext={e}\n"));
    }
    for l in &b.needed_libs {
        s.push_str(&format!("needed={l}\n"));
    }
    for o in &b.objects {
        s.push_str(&format!("object={o}\n"));
    }
    write_kernel(&mut s, &b.kernel);
    s.into_bytes()
}

// ---- deserialization ----------------------------------------------------

struct Fields<'a> {
    lines: Vec<(&'a str, &'a str)>,
}

impl<'a> Fields<'a> {
    fn parse(body: &'a str) -> Self {
        let lines = body
            .lines()
            .filter_map(|l| l.split_once('='))
            .collect();
        Fields { lines }
    }

    fn one(&self, key: &str) -> Option<&'a str> {
        self.lines.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    fn many(&self, key: &str) -> Vec<String> {
        self.lines
            .iter()
            .filter(|(k, _)| *k == key)
            .map(|(_, v)| v.to_string())
            .collect()
    }

    fn kernel(&self) -> KernelParams {
        let mut k = KernelParams::default();
        for (key, v) in &self.lines {
            if let Some(name) = key.strip_prefix("kernel.") {
                if let Ok(val) = v.parse::<f64>() {
                    k.0.insert(name.to_string(), val);
                }
            }
        }
        k
    }

    fn opt(&self) -> OptProvenance {
        OptProvenance {
            toolchain: self.one("toolchain").unwrap_or("gcc-13").to_string(),
            codegen_quality: self.one("quality").and_then(|v| v.parse().ok()).unwrap_or(1.0),
            opt_level: self.one("opt").unwrap_or("0").to_string(),
            vector_width: self.one("vector").and_then(|v| v.parse().ok()).unwrap_or(2),
            fast_math: self.one("fast-math") == Some("1"),
            openmp: self.one("openmp") == Some("1"),
            lto_ir: self.one("lto-ir") == Some("1"),
            pgo: parse_pgo(self.one("pgo").unwrap_or("none")),
        }
    }

    fn target(&self) -> Option<TargetInfo> {
        match (self.one("isa"), self.one("march")) {
            (Some(isa), Some(march)) => Some(TargetInfo {
                isa: isa.to_string(),
                march: march.to_string(),
            }),
            _ => None,
        }
    }
}

fn obj_from_body(body: &str) -> ObjectFile {
    let f = Fields::parse(body);
    ObjectFile {
        source_path: f.one("source").unwrap_or("").to_string(),
        source_digest: f.one("source-digest").unwrap_or("").to_string(),
        lang: f.one("lang").unwrap_or("c").to_string(),
        defined: f.many("def"),
        undefined: f.many("und"),
        externs: f.many("ext"),
        target: f.target(),
        opt: f.opt(),
        kernel: f.kernel(),
    }
}

/// Parse an object file.
pub fn read_object(bytes: &[u8]) -> Result<ObjectFile, ArtifactError> {
    let text = std::str::from_utf8(bytes).map_err(|_| ArtifactError::NotAnArtifact)?;
    let body = text
        .strip_prefix(OBJ_MAGIC)
        .and_then(|r| r.strip_prefix('\n'))
        .ok_or(ArtifactError::NotAnArtifact)?;
    Ok(obj_from_body(body))
}

/// Parse an archive.
pub fn read_archive_artifact(bytes: &[u8]) -> Result<Archive, ArtifactError> {
    let text = std::str::from_utf8(bytes).map_err(|_| ArtifactError::NotAnArtifact)?;
    let mut rest = text
        .strip_prefix(AR_MAGIC)
        .and_then(|r| r.strip_prefix('\n'))
        .ok_or(ArtifactError::NotAnArtifact)?;
    let mut members = Vec::new();
    while !rest.is_empty() {
        let line_end = rest
            .find('\n')
            .ok_or_else(|| ArtifactError::Malformed("truncated member header".into()))?;
        let header = &rest[..line_end];
        rest = &rest[line_end + 1..];
        let mut parts = header.split(' ');
        let kw = parts.next().unwrap_or("");
        if kw != "member" {
            return Err(ArtifactError::Malformed(format!("bad member header: {header}")));
        }
        let name = parts
            .next()
            .ok_or_else(|| ArtifactError::Malformed("member missing name".into()))?;
        let len: usize = parts
            .next()
            .and_then(|l| l.parse().ok())
            .ok_or_else(|| ArtifactError::Malformed("member missing length".into()))?;
        if rest.len() < len {
            return Err(ArtifactError::Malformed("member body truncated".into()));
        }
        let body = &rest[..len];
        rest = &rest[len..];
        members.push((name.to_string(), obj_from_body(body)));
    }
    Ok(Archive { members })
}

/// Parse a linked binary.
pub fn read_linked(bytes: &[u8]) -> Result<LinkedBinary, ArtifactError> {
    let text = std::str::from_utf8(bytes).map_err(|_| ArtifactError::NotAnArtifact)?;
    let body = text
        .strip_prefix(BIN_MAGIC)
        .and_then(|r| r.strip_prefix('\n'))
        .ok_or(ArtifactError::NotAnArtifact)?;
    let f = Fields::parse(body);
    Ok(LinkedBinary {
        kind: if f.one("kind") == Some("so") {
            BinKind::SharedObject
        } else {
            BinKind::Executable
        },
        defined: f.many("def"),
        externs: f.many("ext"),
        needed_libs: f.many("needed"),
        objects: f.many("object"),
        target: f.target(),
        opt: f.opt(),
        lto_applied: f.one("lto-applied") == Some("1"),
        layout_optimized: f.one("layout-optimized") == Some("1"),
        kernel: f.kernel(),
    })
}

/// Sniff and parse any COMT artifact.
pub fn read_artifact(bytes: &[u8]) -> Result<Artifact, ArtifactError> {
    let text = std::str::from_utf8(bytes).map_err(|_| ArtifactError::NotAnArtifact)?;
    if text.starts_with(OBJ_MAGIC) {
        read_object(bytes).map(Artifact::Object)
    } else if text.starts_with(AR_MAGIC) {
        read_archive_artifact(bytes).map(Artifact::Archive)
    } else if text.starts_with(BIN_MAGIC) {
        read_linked(bytes).map(Artifact::Linked)
    } else {
        Err(ArtifactError::NotAnArtifact)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_obj() -> ObjectFile {
        let mut kernel = KernelParams::default();
        kernel.0.insert("flops".into(), 1.5e12);
        kernel.0.insert("bytes".into(), 4.2e11);
        ObjectFile {
            source_path: "/src/kernel.cc".into(),
            source_digest: "sha256:abcd".into(),
            lang: "c++".into(),
            defined: vec!["CalcForce".into(), "CalcVolume".into()],
            undefined: vec!["CommSend".into()],
            externs: vec!["m:sqrt".into(), "mpi:MPI_Allreduce".into()],
            target: Some(TargetInfo {
                isa: "x86_64".into(),
                march: "icelake-server".into(),
            }),
            opt: OptProvenance {
                toolchain: "vendor-x86".into(),
                codegen_quality: 1.25,
                opt_level: "3".into(),
                vector_width: 8,
                fast_math: true,
                openmp: true,
                lto_ir: true,
                pgo: PgoMode::Instrumented,
            },
            kernel,
        }
    }

    #[test]
    fn object_roundtrip() {
        let o = sample_obj();
        let bytes = write_object(&o);
        let back = read_object(&bytes).unwrap();
        assert_eq!(back, o);
    }

    #[test]
    fn archive_roundtrip() {
        let a = Archive {
            members: vec![
                ("kernel.o".into(), sample_obj()),
                ("util.o".into(), ObjectFile::default()),
            ],
        };
        let bytes = write_archive_artifact(&a);
        let back = read_archive_artifact(&bytes).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn linked_roundtrip() {
        let b = LinkedBinary {
            kind: BinKind::Executable,
            defined: vec!["main".into()],
            externs: vec!["m:sqrt".into()],
            needed_libs: vec!["m".into(), "mpi".into()],
            objects: vec!["/src/main.cc".into()],
            target: Some(TargetInfo {
                isa: "aarch64".into(),
                march: "armv8-a".into(),
            }),
            opt: OptProvenance::default(),
            lto_applied: true,
            layout_optimized: false,
            kernel: KernelParams::default(),
        };
        let bytes = write_linked(&b);
        let back = read_linked(&bytes).unwrap();
        assert_eq!(back, b);
    }

    #[test]
    fn sniffing_dispatch() {
        let o = write_object(&sample_obj());
        assert!(matches!(read_artifact(&o), Ok(Artifact::Object(_))));
        let a = write_archive_artifact(&Archive::default());
        assert!(matches!(read_artifact(&a), Ok(Artifact::Archive(_))));
        assert!(matches!(
            read_artifact(b"\x7fELF real binary"),
            Err(ArtifactError::NotAnArtifact)
        ));
    }

    #[test]
    fn kernel_params_absorb_sums() {
        let mut a = KernelParams::default();
        a.0.insert("flops".into(), 1.0);
        let mut b = KernelParams::default();
        b.0.insert("flops".into(), 2.5);
        b.0.insert("bytes".into(), 7.0);
        a.absorb(&b);
        assert_eq!(a.get("flops"), 3.5);
        assert_eq!(a.get("bytes"), 7.0);
        assert_eq!(a.get("missing"), 0.0);
    }

    #[test]
    fn truncated_archive_malformed() {
        let a = Archive {
            members: vec![("m.o".into(), sample_obj())],
        };
        let mut bytes = write_archive_artifact(&a);
        bytes.truncate(bytes.len() - 10);
        assert!(matches!(
            read_archive_artifact(&bytes),
            Err(ArtifactError::Malformed(_))
        ));
    }

    #[test]
    fn float_roundtrip_exact() {
        let mut k = KernelParams::default();
        k.0.insert("x".into(), 1.234_567_890_123e-7);
        let o = ObjectFile {
            kernel: k.clone(),
            ..Default::default()
        };
        let back = read_object(&write_object(&o)).unwrap();
        assert_eq!(back.kernel, k);
    }
}
