//! Dependency expressions: `libfoo (>= 1.2), libbar | libbaz (= 2.0)`.

use crate::version::{cmp_versions, Version};
use std::cmp::Ordering;
use std::fmt;
use std::str::FromStr;

/// A version constraint operator, Debian syntax.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintOp {
    /// `<<` strictly earlier
    Lt,
    /// `<=`
    Le,
    /// `=`
    Eq,
    /// `>=`
    Ge,
    /// `>>` strictly later
    Gt,
}

impl fmt::Display for ConstraintOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ConstraintOp::Lt => "<<",
            ConstraintOp::Le => "<=",
            ConstraintOp::Eq => "=",
            ConstraintOp::Ge => ">=",
            ConstraintOp::Gt => ">>",
        };
        write!(f, "{s}")
    }
}

/// `(op version)` part of a dependency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VersionConstraint {
    pub op: ConstraintOp,
    pub version: Version,
}

impl VersionConstraint {
    /// Whether `candidate` satisfies this constraint.
    pub fn satisfied_by(&self, candidate: &Version) -> bool {
        let ord = cmp_versions(candidate, &self.version);
        match self.op {
            ConstraintOp::Lt => ord == Ordering::Less,
            ConstraintOp::Le => ord != Ordering::Greater,
            ConstraintOp::Eq => ord == Ordering::Equal,
            ConstraintOp::Ge => ord != Ordering::Less,
            ConstraintOp::Gt => ord == Ordering::Greater,
        }
    }
}

/// One dependency alternative: package name + optional version constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimpleDep {
    pub name: String,
    pub constraint: Option<VersionConstraint>,
}

impl SimpleDep {
    pub fn matches(&self, name: &str, version: &Version) -> bool {
        self.name == name
            && self
                .constraint
                .as_ref()
                .map(|c| c.satisfied_by(version))
                .unwrap_or(true)
    }
}

impl fmt::Display for SimpleDep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)?;
        if let Some(c) = &self.constraint {
            write!(f, " ({} {})", c.op, c.version)?;
        }
        Ok(())
    }
}

/// A dependency with alternatives: `a | b | c`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dependency {
    pub alternatives: Vec<SimpleDep>,
}

impl fmt::Display for Dependency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.alternatives.iter().map(|a| a.to_string()).collect();
        write!(f, "{}", parts.join(" | "))
    }
}

/// A full dependency list: comma-separated [`Dependency`]s.
pub type DependencyList = Vec<Dependency>;

/// Parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DepError {
    Empty,
    BadConstraint(String),
    UnbalancedParens(String),
}

impl fmt::Display for DepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DepError::Empty => write!(f, "empty dependency"),
            DepError::BadConstraint(s) => write!(f, "bad version constraint: {s}"),
            DepError::UnbalancedParens(s) => write!(f, "unbalanced parentheses in: {s}"),
        }
    }
}

impl std::error::Error for DepError {}

fn parse_simple(s: &str) -> Result<SimpleDep, DepError> {
    let s = s.trim();
    if s.is_empty() {
        return Err(DepError::Empty);
    }
    match s.find('(') {
        None => {
            if s.contains(')') {
                return Err(DepError::UnbalancedParens(s.to_string()));
            }
            Ok(SimpleDep {
                name: s.to_string(),
                constraint: None,
            })
        }
        Some(open) => {
            let name = s[..open].trim().to_string();
            if name.is_empty() {
                return Err(DepError::Empty);
            }
            // `a)(`: the last `)` may precede the first `(`.
            let close = s
                .rfind(')')
                .filter(|&close| close > open)
                .ok_or_else(|| DepError::UnbalancedParens(s.into()))?;
            let inner = s[open + 1..close].trim();
            let (op, rest) = if let Some(r) = inner.strip_prefix(">=") {
                (ConstraintOp::Ge, r)
            } else if let Some(r) = inner.strip_prefix("<=") {
                (ConstraintOp::Le, r)
            } else if let Some(r) = inner.strip_prefix(">>") {
                (ConstraintOp::Gt, r)
            } else if let Some(r) = inner.strip_prefix("<<") {
                (ConstraintOp::Lt, r)
            } else if let Some(r) = inner.strip_prefix('=') {
                (ConstraintOp::Eq, r)
            } else {
                return Err(DepError::BadConstraint(inner.to_string()));
            };
            let vstr = rest.trim();
            if vstr.is_empty() {
                return Err(DepError::BadConstraint(inner.to_string()));
            }
            Ok(SimpleDep {
                name,
                constraint: Some(VersionConstraint {
                    op,
                    version: Version::new(vstr),
                }),
            })
        }
    }
}

impl FromStr for Dependency {
    type Err = DepError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let alternatives: Result<Vec<SimpleDep>, DepError> =
            s.split('|').map(parse_simple).collect();
        let alternatives = alternatives?;
        if alternatives.is_empty() {
            return Err(DepError::Empty);
        }
        Ok(Dependency { alternatives })
    }
}

/// Parse a comma-separated dependency list (the `Depends:` field).
pub fn parse_list(s: &str) -> Result<DependencyList, DepError> {
    let s = s.trim();
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(',').map(|d| d.parse()).collect()
}

/// Render a dependency list back to `Depends:` syntax.
pub fn format_list(deps: &[Dependency]) -> String {
    deps.iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_plain_name() {
        let d: Dependency = "libm".parse().unwrap();
        assert_eq!(d.alternatives.len(), 1);
        assert_eq!(d.alternatives[0].name, "libm");
        assert!(d.alternatives[0].constraint.is_none());
    }

    #[test]
    fn parse_with_constraint() {
        let d: Dependency = "libc6 (>= 2.38)".parse().unwrap();
        let c = d.alternatives[0].constraint.as_ref().unwrap();
        assert_eq!(c.op, ConstraintOp::Ge);
        assert_eq!(c.version.upstream, "2.38");
    }

    #[test]
    fn parse_alternatives() {
        let d: Dependency = "mpich | openmpi (>= 4.0)".parse().unwrap();
        assert_eq!(d.alternatives.len(), 2);
        assert_eq!(d.alternatives[0].name, "mpich");
        assert_eq!(d.alternatives[1].name, "openmpi");
        assert!(d.alternatives[1].constraint.is_some());
    }

    #[test]
    fn parse_full_list() {
        let l = parse_list("libc6 (>= 2.38), libstdc++6, zlib1g | zlib-ng").unwrap();
        assert_eq!(l.len(), 3);
        assert_eq!(format_list(&l), "libc6 (>= 2.38), libstdc++6, zlib1g | zlib-ng");
    }

    #[test]
    fn parse_empty_list_ok() {
        assert!(parse_list("").unwrap().is_empty());
        assert!(parse_list("  ").unwrap().is_empty());
    }

    #[test]
    fn parse_all_operators() {
        for (s, op) in [
            ("p (<< 1)", ConstraintOp::Lt),
            ("p (<= 1)", ConstraintOp::Le),
            ("p (= 1)", ConstraintOp::Eq),
            ("p (>= 1)", ConstraintOp::Ge),
            ("p (>> 1)", ConstraintOp::Gt),
        ] {
            let d: Dependency = s.parse().unwrap();
            assert_eq!(d.alternatives[0].constraint.as_ref().unwrap().op, op);
        }
    }

    #[test]
    fn constraint_satisfaction() {
        let d: Dependency = "p (>= 1.5)".parse().unwrap();
        let c = d.alternatives[0].constraint.as_ref().unwrap();
        assert!(c.satisfied_by(&Version::new("1.5")));
        assert!(c.satisfied_by(&Version::new("2.0")));
        assert!(!c.satisfied_by(&Version::new("1.4.9")));
    }

    #[test]
    fn strict_operators_exclude_equal() {
        let lt = VersionConstraint {
            op: ConstraintOp::Lt,
            version: Version::new("2.0"),
        };
        assert!(!lt.satisfied_by(&Version::new("2.0")));
        assert!(lt.satisfied_by(&Version::new("2.0~rc1")));
    }

    #[test]
    fn rejects_garbage() {
        assert!("".parse::<Dependency>().is_err());
        assert!("p (~> 1)".parse::<Dependency>().is_err());
        assert!("p (>= )".parse::<Dependency>().is_err());
        assert!("p )".parse::<Dependency>().is_err());
        assert!("(>= 1)".parse::<Dependency>().is_err());
    }

    #[test]
    fn matches_by_name_and_version() {
        let d: Dependency = "libblas (>= 3)".parse().unwrap();
        assert!(d.alternatives[0].matches("libblas", &Version::new("3.11")));
        assert!(!d.alternatives[0].matches("libblas", &Version::new("2.9")));
        assert!(!d.alternatives[0].matches("liblapack", &Version::new("3.11")));
    }
}
