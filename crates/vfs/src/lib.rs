//! In-memory POSIX filesystem simulator with OCI layer semantics.
//!
//! The coMtainer toolset must "compute the final file system state after
//! applying all image layers" (paper §4.5). This crate provides that
//! simulator:
//!
//! * a normalized, absolute-path keyed tree of files / directories /
//!   symlinks with POSIX metadata,
//! * symlink resolution with loop detection,
//! * OCI layer-changeset **application** (whiteouts `.wh.<name>`, opaque
//!   directories `.wh..wh..opq`),
//! * layer-changeset **computation** (diff between two filesystem states),
//! * full-snapshot import/export to the `comt-tar` archive format.
//!
//! File contents are [`bytes::Bytes`], so cloning a whole rootfs (containers
//! fork base images constantly) is cheap.

mod layer;
mod path;
mod vfs;

pub use layer::{apply_layer, diff_layers, whiteout_target, OPAQUE_MARKER, WHITEOUT_PREFIX};
pub use path::{file_name, join, normalize, parent, split};
pub use vfs::{text_lossy, Node, NodeKind, Vfs, VfsError};

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn end_to_end_layering() {
        // Base image.
        let mut base = Vfs::new();
        base.mkdir_p("/usr/bin").unwrap();
        base.write_file("/usr/bin/sh", Bytes::from_static(b"#!shell"), 0o755)
            .unwrap();
        base.write_file_p("/etc/os-release", Bytes::from_static(b"ubuntu"), 0o644)
            .unwrap();

        // Application layer on top.
        let mut app = base.clone();
        app.write_file("/usr/bin/app", Bytes::from_static(b"ELF"), 0o755)
            .unwrap();
        app.remove("/etc/os-release").unwrap();

        // The diff must reconstruct `app` from `base`.
        let changeset = diff_layers(&base, &app);
        let mut rebuilt = base.clone();
        apply_layer(&mut rebuilt, &changeset).unwrap();
        assert_eq!(rebuilt, app);
    }
}
