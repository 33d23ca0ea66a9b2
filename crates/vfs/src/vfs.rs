//! The filesystem tree and its operations.

use crate::path::{normalize, parent};
use bytes::Bytes;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// `bytes` as text: exactly what [`String::from_utf8_lossy`] returns, but
/// valid UTF-8 — every source file the rebuild engine reads — goes through
/// the plain validator and only invalid input pays for the lossy scanner.
pub fn text_lossy(bytes: &[u8]) -> Cow<'_, str> {
    match std::str::from_utf8(bytes) {
        Ok(text) => Cow::Borrowed(text),
        Err(_) => String::from_utf8_lossy(bytes),
    }
}

/// Maximum symlink indirections before declaring a loop (Linux uses 40).
const MAX_SYMLINK_DEPTH: usize = 40;

/// What a path points at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// Regular file with content.
    File(Bytes),
    /// Directory (children are separate map entries).
    Dir,
    /// Symbolic link holding its literal target string.
    Symlink(String),
}

/// A filesystem node: kind plus POSIX metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    pub kind: NodeKind,
    pub mode: u32,
    pub uid: u32,
    pub gid: u32,
    pub mtime: u64,
}

impl Node {
    pub fn file(content: Bytes, mode: u32) -> Self {
        Node {
            kind: NodeKind::File(content),
            mode,
            uid: 0,
            gid: 0,
            mtime: 0,
        }
    }

    pub fn dir(mode: u32) -> Self {
        Node {
            kind: NodeKind::Dir,
            mode,
            uid: 0,
            gid: 0,
            mtime: 0,
        }
    }

    pub fn symlink(target: impl Into<String>) -> Self {
        Node {
            kind: NodeKind::Symlink(target.into()),
            mode: 0o777,
            uid: 0,
            gid: 0,
            mtime: 0,
        }
    }

    /// Payload size in bytes (files only).
    pub fn size(&self) -> u64 {
        match &self.kind {
            NodeKind::File(c) => c.len() as u64,
            _ => 0,
        }
    }

    pub fn is_dir(&self) -> bool {
        matches!(self.kind, NodeKind::Dir)
    }

    pub fn is_file(&self) -> bool {
        matches!(self.kind, NodeKind::File(_))
    }

    pub fn is_symlink(&self) -> bool {
        matches!(self.kind, NodeKind::Symlink(_))
    }
}

/// Errors from filesystem operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VfsError {
    NotFound(String),
    NotADirectory(String),
    IsADirectory(String),
    AlreadyExists(String),
    SymlinkLoop(String),
    /// Parent directory missing when creating a node.
    NoParent(String),
}

impl fmt::Display for VfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VfsError::NotFound(p) => write!(f, "no such file or directory: {p}"),
            VfsError::NotADirectory(p) => write!(f, "not a directory: {p}"),
            VfsError::IsADirectory(p) => write!(f, "is a directory: {p}"),
            VfsError::AlreadyExists(p) => write!(f, "file exists: {p}"),
            VfsError::SymlinkLoop(p) => write!(f, "too many levels of symbolic links: {p}"),
            VfsError::NoParent(p) => write!(f, "parent directory missing: {p}"),
        }
    }
}

impl std::error::Error for VfsError {}

/// In-memory filesystem: a sorted map from normalized absolute path to node.
///
/// The root `/` is implicit and always a directory; it never appears in the
/// map.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Vfs {
    nodes: BTreeMap<String, Node>,
}

impl Vfs {
    /// Empty filesystem (just the implicit root).
    pub fn new() -> Self {
        Vfs::default()
    }

    /// Number of explicit nodes (files + dirs + symlinks, excluding `/`).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the filesystem has no explicit nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Node at `path` without following a trailing symlink (lstat).
    pub fn lstat(&self, path: &str) -> Option<&Node> {
        let p = normalize(path);
        if p == "/" {
            // Root is implicit; expose a static dir node.
            static ROOT: Node = Node {
                kind: NodeKind::Dir,
                mode: 0o755,
                uid: 0,
                gid: 0,
                mtime: 0,
            };
            return Some(&ROOT);
        }
        self.nodes.get(&p)
    }

    /// Whether anything exists at `path` (no symlink following).
    pub fn exists(&self, path: &str) -> bool {
        self.lstat(path).is_some()
    }

    /// Resolve symlinks in every component and return the final path.
    ///
    /// The final component is also resolved. Missing intermediate components
    /// produce `NotFound`.
    pub fn resolve(&self, path: &str) -> Result<String, VfsError> {
        self.resolve_inner(path, 0)
    }

    fn resolve_inner(&self, path: &str, depth: usize) -> Result<String, VfsError> {
        if depth > MAX_SYMLINK_DEPTH {
            return Err(VfsError::SymlinkLoop(path.to_string()));
        }
        let norm = normalize(path);
        if norm == "/" {
            return Ok(norm);
        }
        let mut cur = String::from("/");
        let comps: Vec<&str> = norm[1..].split('/').collect();
        for (i, comp) in comps.iter().enumerate() {
            let next = if cur == "/" {
                format!("/{comp}")
            } else {
                format!("{cur}/{comp}")
            };
            match self.nodes.get(&next) {
                Some(node) if node.is_symlink() => {
                    if let NodeKind::Symlink(target) = &node.kind {
                        let base = parent(&next);
                        let redirected = crate::path::join(&base, target);
                        let rest = comps[i + 1..].join("/");
                        let full = if rest.is_empty() {
                            redirected
                        } else {
                            format!("{redirected}/{rest}")
                        };
                        return self.resolve_inner(&full, depth + 1);
                    }
                    unreachable!()
                }
                Some(_) => cur = next,
                None => {
                    // Once a component is missing nothing further can be a
                    // symlink, so the remaining components resolve
                    // literally. Existence is the caller's concern (this
                    // also resolves creation targets).
                    let rest = comps[i + 1..].join("/");
                    return Ok(if rest.is_empty() {
                        next
                    } else {
                        format!("{next}/{rest}")
                    });
                }
            }
        }
        Ok(cur)
    }

    /// Node at `path`, following symlinks (stat).
    pub fn stat(&self, path: &str) -> Result<&Node, VfsError> {
        let resolved = self.resolve(path)?;
        self.lstat(&resolved)
            .ok_or(VfsError::NotFound(resolved))
    }

    /// Read a file's content, following symlinks.
    pub fn read(&self, path: &str) -> Result<Bytes, VfsError> {
        let node = self.stat(path)?;
        match &node.kind {
            NodeKind::File(c) => Ok(c.clone()),
            NodeKind::Dir => Err(VfsError::IsADirectory(normalize(path))),
            NodeKind::Symlink(_) => unreachable!("stat follows symlinks"),
        }
    }

    /// Read a file as UTF-8 text (lossy).
    pub fn read_string(&self, path: &str) -> Result<String, VfsError> {
        Ok(text_lossy(&self.read(path)?).into_owned())
    }

    fn check_parent(&self, norm: &str) -> Result<(), VfsError> {
        let par = parent(norm);
        if par == "/" {
            return Ok(());
        }
        match self.nodes.get(&par) {
            Some(n) if n.is_dir() => Ok(()),
            Some(_) => Err(VfsError::NotADirectory(par)),
            None => Err(VfsError::NoParent(par)),
        }
    }

    /// Create or overwrite a regular file. Parent must exist. Symlinks in
    /// the path are followed (writing "through" a symlink).
    pub fn write_file(&mut self, path: &str, content: Bytes, mode: u32) -> Result<(), VfsError> {
        let resolved = self.resolve(path)?;
        if let Some(existing) = self.nodes.get(&resolved) {
            if existing.is_dir() {
                return Err(VfsError::IsADirectory(resolved));
            }
        }
        self.check_parent(&resolved)?;
        self.nodes.insert(resolved, Node::file(content, mode));
        Ok(())
    }

    /// `write_file` creating missing parent directories (like `install -D`).
    pub fn write_file_p(&mut self, path: &str, content: Bytes, mode: u32) -> Result<(), VfsError> {
        let resolved = self.resolve(path)?;
        self.mkdir_p(&parent(&resolved))?;
        self.write_file(&resolved, content, mode)
    }

    /// Insert a raw node at a normalized path, creating parents. Used by
    /// layer application where tar entry order is not guaranteed.
    pub fn insert_node(&mut self, path: &str, node: Node) -> Result<(), VfsError> {
        let norm = normalize(path);
        if norm == "/" {
            return Ok(()); // root metadata is fixed
        }
        self.mkdir_p(&parent(&norm))?;
        // Replacing a directory wipes its subtree (tar overwrite semantics).
        if let Some(old) = self.nodes.get(&norm) {
            if old.is_dir() && !node.is_dir() {
                self.remove_subtree(&norm);
            }
        }
        self.nodes.insert(norm, node);
        Ok(())
    }

    /// Create a directory; parent must exist.
    pub fn mkdir(&mut self, path: &str, mode: u32) -> Result<(), VfsError> {
        let norm = normalize(path);
        if norm == "/" {
            return Ok(());
        }
        if let Some(n) = self.nodes.get(&norm) {
            return if n.is_dir() {
                Err(VfsError::AlreadyExists(norm))
            } else {
                Err(VfsError::NotADirectory(norm))
            };
        }
        self.check_parent(&norm)?;
        self.nodes.insert(norm, Node::dir(mode));
        Ok(())
    }

    /// Create a directory and all missing parents (idempotent).
    pub fn mkdir_p(&mut self, path: &str) -> Result<(), VfsError> {
        let norm = normalize(path);
        if norm == "/" {
            return Ok(());
        }
        let mut cur = String::new();
        for comp in norm[1..].split('/') {
            cur.push('/');
            cur.push_str(comp);
            match self.nodes.get(&cur) {
                Some(n) if n.is_dir() => {}
                Some(n) if n.is_symlink() => {
                    // Follow the symlink for the remainder.
                    let resolved = self.resolve(&cur)?;
                    if resolved != cur {
                        let rest_start = cur.len();
                        let rest = &norm[rest_start..];
                        let full = format!("{resolved}{rest}");
                        return self.mkdir_p(&full);
                    }
                }
                Some(_) => return Err(VfsError::NotADirectory(cur)),
                None => {
                    self.nodes.insert(cur.clone(), Node::dir(0o755));
                }
            }
        }
        Ok(())
    }

    /// Create a symlink node. Parent must exist; path must not exist.
    pub fn symlink(&mut self, path: &str, target: &str) -> Result<(), VfsError> {
        let norm = normalize(path);
        if self.nodes.contains_key(&norm) {
            return Err(VfsError::AlreadyExists(norm));
        }
        self.check_parent(&norm)?;
        self.nodes.insert(norm, Node::symlink(target));
        Ok(())
    }

    fn remove_subtree(&mut self, norm: &str) {
        let prefix = format!("{norm}/");
        let doomed: Vec<String> = self
            .nodes
            .range(prefix.clone()..)
            .take_while(|(k, _)| k.starts_with(&prefix))
            .map(|(k, _)| k.clone())
            .collect();
        for k in doomed {
            self.nodes.remove(&k);
        }
    }

    /// Remove a file, symlink, or directory (recursively).
    pub fn remove(&mut self, path: &str) -> Result<(), VfsError> {
        let norm = normalize(path);
        if self.nodes.remove(&norm).is_none() {
            return Err(VfsError::NotFound(norm));
        }
        self.remove_subtree(&norm);
        Ok(())
    }

    /// Rename/move a node (and its subtree) to a new path, with
    /// rename(2) semantics: an existing file/symlink target is replaced;
    /// an existing directory target is refused (`AlreadyExists`, standing
    /// in for ENOTEMPTY/EISDIR).
    pub fn rename(&mut self, from: &str, to: &str) -> Result<(), VfsError> {
        let from = normalize(from);
        let to = normalize(to);
        let node = self
            .nodes
            .get(&from)
            .cloned()
            .ok_or_else(|| VfsError::NotFound(from.clone()))?;
        if from == to {
            return Ok(()); // rename(2): same path is a successful no-op
        }
        self.check_parent(&to)?;
        match self.nodes.get(&to) {
            Some(existing) if existing.is_dir() => {
                return Err(VfsError::AlreadyExists(to));
            }
            Some(_) => {
                self.nodes.remove(&to);
            }
            None => {}
        }
        // Move subtree first (keys change).
        let prefix = format!("{from}/");
        let moved: Vec<(String, Node)> = self
            .nodes
            .range(prefix.clone()..)
            .take_while(|(k, _)| k.starts_with(&prefix))
            .map(|(k, n)| (k.clone(), n.clone()))
            .collect();
        for (k, _) in &moved {
            self.nodes.remove(k);
        }
        self.nodes.remove(&from);
        self.nodes.insert(to.clone(), node);
        for (k, n) in moved {
            let suffix = &k[from.len()..];
            self.nodes.insert(format!("{to}{suffix}"), n);
        }
        Ok(())
    }

    /// Immediate children names of a directory, sorted.
    pub fn list_dir(&self, path: &str) -> Result<Vec<String>, VfsError> {
        let norm = self.resolve(path)?;
        if norm != "/" {
            match self.nodes.get(&norm) {
                Some(n) if n.is_dir() => {}
                Some(_) => return Err(VfsError::NotADirectory(norm)),
                None => return Err(VfsError::NotFound(norm)),
            }
        }
        let prefix = if norm == "/" {
            "/".to_string()
        } else {
            format!("{norm}/")
        };
        let mut out = Vec::new();
        for (k, _) in self
            .nodes
            .range(prefix.clone()..)
            .take_while(|(k, _)| k.starts_with(&prefix))
        {
            let rest = &k[prefix.len()..];
            if !rest.contains('/') {
                out.push(rest.to_string());
            }
        }
        Ok(out)
    }

    /// All (path, node) pairs in sorted order.
    pub fn walk(&self) -> impl Iterator<Item = (&String, &Node)> {
        self.nodes.iter()
    }

    /// All paths under a prefix directory (inclusive of nested), sorted.
    pub fn walk_prefix<'a>(&'a self, prefix: &str) -> Vec<(&'a String, &'a Node)> {
        let norm = normalize(prefix);
        let p = if norm == "/" {
            "/".to_string()
        } else {
            format!("{norm}/")
        };
        self.nodes
            .range(p.clone()..)
            .take_while(move |(k, _)| k.starts_with(&p))
            .collect()
    }

    /// Paths of all regular files whose name matches `pred`.
    pub fn find_files(&self, mut pred: impl FnMut(&str) -> bool) -> Vec<String> {
        self.nodes
            .iter()
            .filter(|(k, n)| n.is_file() && pred(k))
            .map(|(k, _)| k.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_string_is_from_utf8_lossy_on_every_input() {
        let mut v = Vfs::new();
        let inputs: [&[u8]; 6] = [
            b"",
            b"int main(void) { return 0; }\n",
            "naïve — ünïcödé ✓".as_bytes(),
            b"cut \xe2\x82 mid-sequence",
            b"\xff\xfe lone bytes \xc0\xaf",
            b"surrogate \xed\xa0\x80 and overlong \xf0\x80\x80\xaf tail",
        ];
        for (i, raw) in inputs.iter().enumerate() {
            let path = format!("/f{i}");
            v.write_file(&path, Bytes::copy_from_slice(raw), 0o644).unwrap();
            let expect = String::from_utf8_lossy(raw);
            assert_eq!(v.read_string(&path).unwrap(), expect, "input {i}");
            assert_eq!(text_lossy(raw), expect, "input {i}");
        }
        // Valid text is borrowed, not rebuilt.
        assert!(matches!(text_lossy(b"plain"), Cow::Borrowed("plain")));
    }

    fn sample() -> Vfs {
        let mut v = Vfs::new();
        v.mkdir_p("/usr/bin").unwrap();
        v.write_file("/usr/bin/gcc", Bytes::from_static(b"GCC"), 0o755)
            .unwrap();
        v.symlink("/usr/bin/cc", "gcc").unwrap();
        v
    }

    #[test]
    fn write_and_read() {
        let v = sample();
        assert_eq!(v.read("/usr/bin/gcc").unwrap(), Bytes::from_static(b"GCC"));
    }

    #[test]
    fn read_through_symlink() {
        let v = sample();
        assert_eq!(v.read("/usr/bin/cc").unwrap(), Bytes::from_static(b"GCC"));
    }

    #[test]
    fn symlink_dir_traversal() {
        let mut v = sample();
        v.mkdir_p("/opt/toolchain/bin").unwrap();
        v.write_file("/opt/toolchain/bin/ld", Bytes::from_static(b"LD"), 0o755)
            .unwrap();
        v.symlink("/usr/tc", "/opt/toolchain").unwrap();
        assert_eq!(v.read("/usr/tc/bin/ld").unwrap(), Bytes::from_static(b"LD"));
    }

    #[test]
    fn relative_symlink_resolution() {
        let mut v = Vfs::new();
        v.mkdir_p("/a/b").unwrap();
        v.write_file("/a/real", Bytes::from_static(b"R"), 0o644)
            .unwrap();
        v.symlink("/a/b/link", "../real").unwrap();
        assert_eq!(v.read("/a/b/link").unwrap(), Bytes::from_static(b"R"));
    }

    #[test]
    fn symlink_loop_detected() {
        let mut v = Vfs::new();
        v.symlink("/x", "/y").unwrap();
        v.symlink("/y", "/x").unwrap();
        assert!(matches!(v.read("/x"), Err(VfsError::SymlinkLoop(_))));
    }

    #[test]
    fn write_requires_parent() {
        let mut v = Vfs::new();
        let err = v.write_file("/no/dir/file", Bytes::new(), 0o644);
        assert!(matches!(err, Err(VfsError::NoParent(_))));
        v.write_file_p("/no/dir/file", Bytes::new(), 0o644).unwrap();
        assert!(v.exists("/no/dir/file"));
    }

    #[test]
    fn mkdir_over_file_fails() {
        let mut v = Vfs::new();
        v.write_file("/f", Bytes::new(), 0o644).unwrap();
        assert!(matches!(v.mkdir("/f", 0o755), Err(VfsError::NotADirectory(_))));
    }

    #[test]
    fn mkdir_p_idempotent() {
        let mut v = Vfs::new();
        v.mkdir_p("/a/b/c").unwrap();
        v.mkdir_p("/a/b/c").unwrap();
        assert!(v.stat("/a/b/c").unwrap().is_dir());
    }

    #[test]
    fn remove_is_recursive() {
        let mut v = sample();
        v.remove("/usr").unwrap();
        assert!(!v.exists("/usr/bin/gcc"));
        assert!(!v.exists("/usr"));
        assert!(v.is_empty());
    }

    #[test]
    fn remove_missing_errors() {
        let mut v = Vfs::new();
        assert!(matches!(v.remove("/nope"), Err(VfsError::NotFound(_))));
    }

    #[test]
    fn rename_moves_subtree() {
        let mut v = sample();
        v.rename("/usr", "/opt").unwrap();
        assert!(v.exists("/opt/bin/gcc"));
        assert!(!v.exists("/usr"));
    }

    #[test]
    fn rename_replaces_file_refuses_dir() {
        let mut v = sample();
        v.write_file("/target", Bytes::from_static(b"old"), 0o644).unwrap();
        v.write_file("/source", Bytes::from_static(b"new"), 0o644).unwrap();
        v.rename("/source", "/target").unwrap();
        assert_eq!(v.read_string("/target").unwrap(), "new");
        // Renaming onto an existing directory is refused (no silent merge).
        v.mkdir_p("/destdir/child_dir").unwrap();
        assert!(matches!(
            v.rename("/usr", "/destdir"),
            Err(VfsError::AlreadyExists(_))
        ));
        assert!(v.exists("/destdir/child_dir"), "target untouched on refusal");
        assert!(v.exists("/usr/bin/gcc"), "source untouched on refusal");
        // rename-to-self is a successful no-op, even for directories.
        v.rename("/usr", "/usr").unwrap();
        assert!(v.exists("/usr/bin/gcc"));
    }

    #[test]
    fn list_dir_sorted_immediate() {
        let v = sample();
        assert_eq!(v.list_dir("/usr/bin").unwrap(), vec!["cc", "gcc"]);
        assert_eq!(v.list_dir("/").unwrap(), vec!["usr"]);
    }

    #[test]
    fn list_dir_on_file_fails() {
        let v = sample();
        assert!(matches!(
            v.list_dir("/usr/bin/gcc"),
            Err(VfsError::NotADirectory(_))
        ));
    }

    #[test]
    fn size_accounting() {
        let v = sample();
        assert_eq!(v.len(), 4); // usr, usr/bin, gcc, cc
    }

    #[test]
    fn overwriting_dir_with_file_clears_subtree() {
        let mut v = sample();
        v.insert_node("/usr/bin", Node::file(Bytes::from_static(b"x"), 0o644))
            .unwrap();
        assert!(!v.exists("/usr/bin/gcc"));
        assert!(v.stat("/usr/bin").unwrap().is_file());
    }

    #[test]
    fn walk_prefix_scopes() {
        let v = sample();
        let under_usr = v.walk_prefix("/usr");
        assert_eq!(under_usr.len(), 3);
        let all = v.walk_prefix("/");
        assert_eq!(all.len(), 4);
    }

    #[test]
    fn resolve_missing_components_resolve_literally() {
        let v = sample();
        assert_eq!(v.resolve("/usr/bin/new").unwrap(), "/usr/bin/new");
        // Missing intermediates resolve literally; existence is stat's job.
        assert_eq!(v.resolve("/usr/missing/new").unwrap(), "/usr/missing/new");
        assert!(matches!(
            v.stat("/usr/missing/new"),
            Err(VfsError::NotFound(_))
        ));
    }

    #[test]
    fn stat_root() {
        let v = Vfs::new();
        assert!(v.stat("/").unwrap().is_dir());
    }
}
