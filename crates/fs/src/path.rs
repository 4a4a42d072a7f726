//! Path handling for the ThemisIO namespace.
//!
//! ThemisIO exposes a POSIX-compliant interface under a namespace prefix such
//! as `/fs` (§4.4): any I/O whose path begins with the prefix is intercepted
//! and served from the burst buffer; everything else passes through to the
//! host file system untouched.

use crate::error::{FsError, FsResult};
use std::borrow::Cow;

/// The default namespace prefix applications point their I/O at.
pub const DEFAULT_NAMESPACE: &str = "/fs";

/// Normalises an absolute path: collapses repeated separators and resolves
/// `.` components. `..` is rejected so paths cannot escape the namespace.
pub fn normalize(path: &str) -> FsResult<String> {
    normalized(path).map(Cow::into_owned)
}

/// [`normalize`] that borrows a path that is already normal, so the data
/// path pays no allocation for the paths clients send.
pub fn normalized(path: &str) -> FsResult<Cow<'_, str>> {
    let Some(rest) = path.strip_prefix('/') else {
        return Err(FsError::InvalidPath(path.to_string()));
    };
    if rest.is_empty() || rest.split('/').all(|c| !matches!(c, "" | "." | "..")) {
        return Ok(Cow::Borrowed(path));
    }
    let mut parts: Vec<&str> = Vec::new();
    for comp in rest.split('/') {
        match comp {
            "" | "." => continue,
            ".." => return Err(FsError::InvalidPath(path.to_string())),
            c => parts.push(c),
        }
    }
    Ok(Cow::Owned(format!("/{}", parts.join("/"))))
}

/// Splits a normalised path into its components (no leading empty component).
pub fn components(path: &str) -> Vec<&str> {
    path.split('/').filter(|c| !c.is_empty()).collect()
}

/// The parent directory of a normalised path (`None` for the root).
pub fn parent(path: &str) -> Option<String> {
    if path == "/" {
        return None;
    }
    match path.rfind('/') {
        Some(0) => Some("/".to_string()),
        Some(idx) => Some(path[..idx].to_string()),
        None => None,
    }
}

/// The final component of a normalised path (`None` for the root).
pub fn file_name(path: &str) -> Option<&str> {
    if path == "/" {
        None
    } else {
        path.rsplit('/').next().filter(|s| !s.is_empty())
    }
}

/// Whether `path` lives below the ThemisIO namespace prefix. Used by the
/// client-side interception shim to decide whether a call is forwarded to a
/// burst-buffer server or passed through.
pub fn in_namespace(path: &str, namespace: &str) -> bool {
    let ns = namespace.trim_end_matches('/');
    path == ns || path.starts_with(&format!("{ns}/"))
}

/// Strips the namespace prefix, returning the in-burst-buffer path (rooted at
/// `/`). Returns `None` when the path is outside the namespace.
pub fn strip_namespace(path: &str, namespace: &str) -> Option<String> {
    let ns = namespace.trim_end_matches('/');
    if path == ns {
        return Some("/".to_string());
    }
    path.strip_prefix(&format!("{ns}/"))
        .map(|rest| format!("/{rest}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_collapses_and_keeps_absolute() {
        assert_eq!(normalize("/a//b/./c").unwrap(), "/a/b/c");
        assert_eq!(normalize("/").unwrap(), "/");
        assert_eq!(normalize("///").unwrap(), "/");
        assert_eq!(normalize("/a/b/").unwrap(), "/a/b");
    }

    #[test]
    fn normalized_borrows_exactly_the_normal_paths() {
        for p in ["/", "/a", "/a/b.c", "/j42/f", "/.a/..b"] {
            assert!(
                matches!(normalized(p).unwrap(), Cow::Borrowed(b) if b == p),
                "{p}"
            );
        }
        for (p, want) in [
            ("//", "/"),
            ("/a/", "/a"),
            ("/./a", "/a"),
            ("/a//b/.", "/a/b"),
        ] {
            assert!(
                matches!(normalized(p).unwrap(), Cow::Owned(o) if o == want),
                "{p}"
            );
        }
        for p in ["a", "", "/..", "/a/../b", "/a/.."] {
            assert!(normalized(p).is_err(), "{p}");
        }
    }

    #[test]
    fn normalize_rejects_relative_and_dotdot() {
        assert!(normalize("a/b").is_err());
        assert!(normalize("/a/../b").is_err());
        assert!(normalize("").is_err());
    }

    #[test]
    fn components_parent_filename() {
        assert_eq!(components("/a/b/c"), vec!["a", "b", "c"]);
        assert_eq!(parent("/a/b/c").unwrap(), "/a/b");
        assert_eq!(parent("/a").unwrap(), "/");
        assert_eq!(parent("/"), None);
        assert_eq!(file_name("/a/b/c"), Some("c"));
        assert_eq!(file_name("/"), None);
    }

    #[test]
    fn namespace_membership_and_strip() {
        assert!(in_namespace("/fs/input/data", "/fs"));
        assert!(in_namespace("/fs", "/fs"));
        assert!(!in_namespace("/scratch/data", "/fs"));
        assert!(!in_namespace("/fsx/data", "/fs"));
        assert_eq!(strip_namespace("/fs/input/x", "/fs").unwrap(), "/input/x");
        assert_eq!(strip_namespace("/fs", "/fs").unwrap(), "/");
        assert_eq!(strip_namespace("/other/x", "/fs"), None);
    }
}
