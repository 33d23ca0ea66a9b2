//! The coMtainer stock images: `Base`, `Env`, `Sysenv`, `Rebase` (§4.1).
//!
//! * **Base** — what user-side `dist` stages build on; identical in content
//!   to a standard distro base image (compatibility promise of Figure 6).
//! * **Env** — the build-stage image: Base + the distro dev toolchain +
//!   the coMtainer toolset with the command hijacker enabled.
//! * **Sysenv** — the system-side rebuild image: Base + distro dev stack +
//!   the system's proprietary vendor toolchain binaries + the LLVM
//!   alternative (the artifact-evaluation substitute).
//! * **Rebase** — the system-side redirect base: content-compatible with
//!   Base; the redirect step installs optimized runtime packages on top.

use bytes::Bytes;
use comt_oci::{BlobStore, Image, ImageBuilder};
use comt_pkg::{catalog, Dependency};
use comt_vfs::Vfs;

use crate::ComtError;

/// The four stock images for one ISA.
pub struct StockImages {
    pub isa: String,
    pub base: Image,
    pub env: Image,
    pub sysenv: Image,
    pub rebase: Image,
}

fn install_set(fs: &mut Vfs, repo: &comt_pkg::Repository, names: &[&str]) -> Result<(), ComtError> {
    let deps: Vec<Dependency> = names
        .iter()
        .map(|n| n.parse().map_err(|e| ComtError::pkg(format!("{n}: {e}"))))
        .collect::<Result<_, _>>()?;
    comt_pkg::install_missing(fs, repo, &deps).map_err(|e| ComtError::pkg(e.to_string()))
}

fn write_tool(fs: &mut Vfs, path: &str, seed: &str) -> Result<(), ComtError> {
    fs.write_file_p(path, catalog::synth_bytes(seed, 64), 0o755)
        .map_err(|e| ComtError::fs(e.to_string()))
}

/// The base rootfs: essential packages + identity files.
pub fn base_rootfs(isa: &str, scale: f64) -> Result<Vfs, ComtError> {
    let repo = catalog::generic_repo_scaled(isa, scale);
    let mut fs = Vfs::new();
    let names = catalog::base_package_names();
    install_set(&mut fs, &repo, &names)?;
    fs.write_file_p(
        "/etc/os-release",
        Bytes::from_static(b"NAME=\"Nebula Linux\"\nVERSION_ID=\"24.04\"\n"),
        0o644,
    )
    .map_err(|e| ComtError::fs(e.to_string()))?;
    Ok(fs)
}

/// The dev stack on top of a base rootfs (distro toolchain + make/cmake).
pub(crate) fn add_dev_stack(fs: &mut Vfs, isa: &str, scale: f64) -> Result<(), ComtError> {
    let repo = catalog::generic_repo_scaled(isa, scale);
    let names = catalog::dev_package_names();
    install_set(fs, &repo, &names)
}

/// The system's stack ships vendor builds of the perf-relevant base
/// libraries (libc/libm, libstdc++, …): replace the distro ones with them.
pub(crate) fn add_vendor_libraries(
    fs: &mut Vfs,
    system_repo: &comt_pkg::Repository,
) -> Result<(), ComtError> {
    let upgrades: Vec<comt_pkg::Package> = comt_pkg::perf_upgrades(fs, system_repo)
        .map_err(|e| ComtError::pkg(e.to_string()))?
        .into_iter()
        .map(|(_, latest)| latest.clone())
        .collect();
    comt_pkg::install_packages(fs, &upgrades).map_err(|e| ComtError::pkg(e.to_string()))
}

/// Vendor + LLVM toolchain binaries for the Sysenv image. These are not
/// distro packages ("we can't share our system-side Sysenv and Rebase
/// images as they contain proprietary system-specific compiler
/// toolchains" — paper artifact description), so they are written directly.
fn add_system_toolchains(fs: &mut Vfs, isa: &str) -> Result<(), ComtError> {
    let vendor = comt_toolchain::Toolchain::vendor_for(isa);
    for name in vendor
        .cc_names
        .iter()
        .chain(vendor.cxx_names.iter())
        .chain(vendor.fc_names.iter())
    {
        write_tool(fs, &format!("/opt/vendor/bin/{name}"), &format!("vendor:{name}:{isa}"))?;
        fs.symlink(&format!("/usr/bin/{name}"), &format!("/opt/vendor/bin/{name}"))
            .map_err(|e| ComtError::fs(e.to_string()))?;
    }
    let llvm = comt_toolchain::Toolchain::llvm();
    for name in llvm
        .cc_names
        .iter()
        .chain(llvm.cxx_names.iter())
        .chain(llvm.fc_names.iter())
    {
        write_tool(fs, &format!("/usr/bin/{name}"), &format!("llvm:{name}:{isa}"))?;
    }
    Ok(())
}

/// Mark an image as carrying the coMtainer toolset.
fn add_toolset(fs: &mut Vfs) -> Result<(), ComtError> {
    write_tool(fs, "/.coMtainer/bin/coMtainer", "toolset")?;
    write_tool(fs, "/.coMtainer/bin/hijacker", "hijacker")?;
    fs.mkdir_p("/.coMtainer/io")
        .map_err(|e| ComtError::fs(e.to_string()))
}

impl StockImages {
    /// Build the four stock images into a blob store at the given payload
    /// scale (use [`comt_pkg::catalog::MINI_SCALE`] for tests).
    pub fn build(store: &mut BlobStore, isa: &str, scale: f64) -> Result<Self, ComtError> {
        let base_fs = base_rootfs(isa, scale)?;
        let base = ImageBuilder::from_scratch(isa)
            .with_layer_from_fs(&Vfs::new(), &base_fs)
            .with_env("PATH", "/usr/local/bin:/usr/bin:/bin")
            .with_label("comtainer.image", "base")
            .commit(store)
            .map_err(|e| ComtError::oci(e.to_string()))?;

        let mut env_fs = base_fs.clone();
        add_dev_stack(&mut env_fs, isa, scale)?;
        add_toolset(&mut env_fs)?;
        let env = ImageBuilder::from_base(store, &base)
            .map_err(|e| ComtError::oci(e.to_string()))?
            .with_layer_from_fs(&base_fs, &env_fs)
            .with_label("comtainer.image", "env")
            .commit(store)
            .map_err(|e| ComtError::oci(e.to_string()))?;

        let mut sysenv_fs = base_fs.clone();
        add_dev_stack(&mut sysenv_fs, isa, scale)?;
        add_system_toolchains(&mut sysenv_fs, isa)?;
        add_vendor_libraries(&mut sysenv_fs, &catalog::system_repo_scaled(isa, scale))?;
        add_toolset(&mut sysenv_fs)?;
        let sysenv = ImageBuilder::from_base(store, &base)
            .map_err(|e| ComtError::oci(e.to_string()))?
            .with_layer_from_fs(&base_fs, &sysenv_fs)
            .with_label("comtainer.image", "sysenv")
            .commit(store)
            .map_err(|e| ComtError::oci(e.to_string()))?;

        let mut rebase_fs = base_fs.clone();
        add_toolset(&mut rebase_fs)?;
        let rebase = ImageBuilder::from_base(store, &base)
            .map_err(|e| ComtError::oci(e.to_string()))?
            .with_layer_from_fs(&base_fs, &rebase_fs)
            .with_label("comtainer.image", "rebase")
            .commit(store)
            .map_err(|e| ComtError::oci(e.to_string()))?;

        Ok(StockImages {
            isa: isa.to_string(),
            base,
            env,
            sysenv,
            rebase,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stock_images_shape() {
        let mut store = BlobStore::new();
        let stock = StockImages::build(&mut store, "x86_64", catalog::MINI_SCALE).unwrap();

        let base_fs = comt_oci::flatten(&store, &stock.base).unwrap();
        assert!(base_fs.exists("/usr/bin/bash"));
        assert!(base_fs.exists("/etc/os-release"));
        assert!(!base_fs.exists("/usr/bin/gcc"), "base has no toolchain");

        let env_fs = comt_oci::flatten(&store, &stock.env).unwrap();
        assert!(env_fs.exists("/usr/bin/gcc"));
        assert!(env_fs.exists("/usr/bin/make"));
        assert!(env_fs.exists("/.coMtainer/bin/hijacker"));

        let sysenv_fs = comt_oci::flatten(&store, &stock.sysenv).unwrap();
        assert!(sysenv_fs.exists("/usr/bin/vcc"), "vendor compiler present");
        assert!(sysenv_fs.exists("/usr/bin/clang"), "llvm alternative present");
        assert!(sysenv_fs.exists("/usr/bin/gcc"), "distro fallback present");

        let rebase_fs = comt_oci::flatten(&store, &stock.rebase).unwrap();
        assert!(!rebase_fs.exists("/usr/bin/gcc"), "rebase is runtime-only");
        assert!(rebase_fs.exists("/.coMtainer/bin/coMtainer"));
    }

    #[test]
    fn arm_stock_has_arm_vendor_compiler() {
        let mut store = BlobStore::new();
        let stock = StockImages::build(&mut store, "aarch64", catalog::MINI_SCALE).unwrap();
        let sysenv_fs = comt_oci::flatten(&store, &stock.sysenv).unwrap();
        assert!(sysenv_fs.exists("/usr/bin/ftcc"));
        assert!(!sysenv_fs.exists("/usr/bin/vcc"));
        assert_eq!(stock.sysenv.architecture(), "aarch64");
    }

    #[test]
    fn base_and_rebase_compatible() {
        let mut store = BlobStore::new();
        let stock = StockImages::build(&mut store, "x86_64", catalog::MINI_SCALE).unwrap();
        let base_fs = comt_oci::flatten(&store, &stock.base).unwrap();
        let rebase_fs = comt_oci::flatten(&store, &stock.rebase).unwrap();
        // Every base file exists identically in rebase.
        for (path, node) in base_fs.walk() {
            assert_eq!(rebase_fs.lstat(path), Some(node), "{path}");
        }
    }
}
