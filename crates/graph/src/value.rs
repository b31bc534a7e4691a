//! Typed property values.
//!
//! Property graphs in the paper attach "arbitrary user-defined attributes"
//! to vertices and edges — file sizes, timestamps, names, annotations.
//! [`PropValue`] is the closed set of value types those attributes take.
//! Values of the same variant are totally ordered so the `RANGE` filter of
//! the GTravel language is well defined; comparisons across variants are
//! always `None` (a RANGE filter over mismatched types simply rejects).

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// One attribute value on a vertex or edge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PropValue {
    /// 64-bit signed integer (timestamps, sizes, counters).
    Int(i64),
    /// IEEE-754 double (measurements). NaN is normalized to 0.0 on
    /// construction so equality and ordering stay total in practice.
    Float(f64),
    /// UTF-8 string (names, annotations, types).
    Str(String),
    /// Boolean flag.
    Bool(bool),
}

impl PropValue {
    /// Construct a float value, normalizing NaN to `0.0`.
    pub fn float(f: f64) -> Self {
        PropValue::Float(if f.is_nan() { 0.0 } else { f })
    }

    /// Construct a string value.
    pub fn str(s: impl Into<String>) -> Self {
        PropValue::Str(s.into())
    }

    /// Compare two values of the same variant; `None` across variants.
    pub fn partial_cmp_same_type(&self, other: &PropValue) -> Option<Ordering> {
        match (self, other) {
            (PropValue::Int(a), PropValue::Int(b)) => Some(a.cmp(b)),
            (PropValue::Float(a), PropValue::Float(b)) => a.partial_cmp(b),
            (PropValue::Str(a), PropValue::Str(b)) => Some(a.cmp(b)),
            (PropValue::Bool(a), PropValue::Bool(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// The integer payload if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            PropValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The string payload if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            PropValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for PropValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PropValue::Int(i) => write!(f, "{i}"),
            PropValue::Float(x) => write!(f, "{x}"),
            PropValue::Str(s) => write!(f, "{s:?}"),
            PropValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for PropValue {
    fn from(v: i64) -> Self {
        PropValue::Int(v)
    }
}
impl From<i32> for PropValue {
    fn from(v: i32) -> Self {
        PropValue::Int(v as i64)
    }
}
impl From<u32> for PropValue {
    fn from(v: u32) -> Self {
        PropValue::Int(v as i64)
    }
}
impl From<f64> for PropValue {
    fn from(v: f64) -> Self {
        PropValue::float(v)
    }
}
impl From<&str> for PropValue {
    fn from(v: &str) -> Self {
        PropValue::Str(v.to_string())
    }
}
impl From<String> for PropValue {
    fn from(v: String) -> Self {
        PropValue::Str(v)
    }
}
impl From<bool> for PropValue {
    fn from(v: bool) -> Self {
        PropValue::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_type_ordering() {
        assert_eq!(
            PropValue::Int(1).partial_cmp_same_type(&PropValue::Int(2)),
            Some(Ordering::Less)
        );
        assert_eq!(
            PropValue::str("b").partial_cmp_same_type(&PropValue::str("a")),
            Some(Ordering::Greater)
        );
        assert_eq!(
            PropValue::Bool(true).partial_cmp_same_type(&PropValue::Bool(true)),
            Some(Ordering::Equal)
        );
    }

    #[test]
    fn cross_type_is_incomparable() {
        assert_eq!(
            PropValue::Int(1).partial_cmp_same_type(&PropValue::str("1")),
            None
        );
        assert_eq!(
            PropValue::Bool(true).partial_cmp_same_type(&PropValue::Int(1)),
            None
        );
    }

    #[test]
    fn nan_normalized() {
        assert_eq!(PropValue::float(f64::NAN), PropValue::Float(0.0));
    }

    #[test]
    fn conversions() {
        assert_eq!(PropValue::from(5i32), PropValue::Int(5));
        assert_eq!(PropValue::from("x"), PropValue::str("x"));
        assert_eq!(PropValue::from(true), PropValue::Bool(true));
        assert_eq!(PropValue::Int(3).as_int(), Some(3));
        assert_eq!(PropValue::str("y").as_str(), Some("y"));
        assert_eq!(PropValue::Int(3).as_str(), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(PropValue::Int(7).to_string(), "7");
        assert_eq!(PropValue::str("a").to_string(), "\"a\"");
    }
}
