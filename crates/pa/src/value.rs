//! Data values and finite types of the mini-LOTOS dialect.
//!
//! Full LOTOS uses ACT-ONE algebraic data types; the Multival models quotient
//! to finite state spaces, so this dialect restricts data to *finite scalar
//! types*: booleans, bounded integer ranges, and enumerations. Finiteness is
//! what makes input offers (`g ?x:T`) enumerable during state-space
//! generation.

use std::fmt;
use std::sync::Arc;

/// Interned symbol (identifier) — cheap to clone, compared by content.
pub type Sym = Arc<str>;

/// Creates a [`Sym`] from a string slice.
///
/// # Examples
///
/// ```
/// let s = multival_pa::value::sym("PUSH");
/// assert_eq!(&*s, "PUSH");
/// ```
pub fn sym(s: &str) -> Sym {
    Arc::from(s)
}

/// An enumeration type declaration (`type mesi is I, S, E, M endtype`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EnumDef {
    /// Type name.
    pub name: Sym,
    /// Variant names, in declaration order.
    pub variants: Vec<Sym>,
}

impl EnumDef {
    /// Index of a variant by name.
    pub fn variant_index(&self, v: &str) -> Option<usize> {
        self.variants.iter().position(|x| &**x == v)
    }
}

/// A finite scalar type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// `bool` — two values.
    Bool,
    /// `int lo..hi` — an inclusive integer range.
    Int(i64, i64),
    /// A declared enumeration.
    Enum(Arc<EnumDef>),
}

impl Type {
    /// All values of the type, in canonical order.
    ///
    /// # Examples
    ///
    /// ```
    /// use multival_pa::value::{Type, Value};
    /// assert_eq!(Type::Int(1, 3).values().len(), 3);
    /// assert_eq!(Type::Bool.values(), vec![Value::Bool(false), Value::Bool(true)]);
    /// ```
    pub fn values(&self) -> Vec<Value> {
        match self {
            Type::Bool => vec![Value::Bool(false), Value::Bool(true)],
            Type::Int(lo, hi) => (*lo..=*hi).map(Value::Int).collect(),
            Type::Enum(def) => def.variants.iter().map(|v| Value::Sym(v.clone())).collect(),
        }
    }

    /// Number of values of the type.
    pub fn cardinality(&self) -> usize {
        match self {
            Type::Bool => 2,
            Type::Int(lo, hi) => {
                (i128::from(*hi) - i128::from(*lo) + 1).clamp(0, usize::MAX as i128) as usize
            }
            Type::Enum(def) => def.variants.len(),
        }
    }

    /// Checks membership of a value in the type.
    pub fn contains(&self, v: &Value) -> bool {
        match (self, v) {
            (Type::Bool, Value::Bool(_)) => true,
            (Type::Int(lo, hi), Value::Int(i)) => lo <= i && i <= hi,
            (Type::Enum(def), Value::Sym(s)) => def.variant_index(s).is_some(),
            _ => false,
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Bool => write!(f, "bool"),
            Type::Int(lo, hi) => write!(f, "int {lo}..{hi}"),
            Type::Enum(def) => write!(f, "{}", def.name),
        }
    }
}

/// A runtime value: boolean, integer, or enumeration constant.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// Boolean.
    Bool(bool),
    /// Integer.
    Int(i64),
    /// Enumeration constant (by variant name).
    Sym(Sym),
}

impl Value {
    /// The boolean payload.
    ///
    /// # Errors
    ///
    /// Returns a type-mismatch message if the value is not a boolean.
    pub fn as_bool(&self) -> Result<bool, String> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(format!("expected bool, got {other}")),
        }
    }

    /// The integer payload.
    ///
    /// # Errors
    ///
    /// Returns a type-mismatch message if the value is not an integer.
    pub fn as_int(&self) -> Result<i64, String> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(format!("expected int, got {other}")),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Sym(s) => write!(f, "{s}"),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_range_values() {
        let t = Type::Int(-1, 2);
        assert_eq!(t.values(), vec![Value::Int(-1), Value::Int(0), Value::Int(1), Value::Int(2)]);
        assert_eq!(t.cardinality(), 4);
    }

    #[test]
    fn empty_range_has_no_values() {
        let t = Type::Int(3, 2);
        assert!(t.values().is_empty());
        assert_eq!(t.cardinality(), 0);
    }

    #[test]
    fn enum_membership() {
        let def =
            Arc::new(EnumDef { name: sym("mesi"), variants: vec![sym("I"), sym("S"), sym("M")] });
        let t = Type::Enum(def);
        assert!(t.contains(&Value::Sym(sym("S"))));
        assert!(!t.contains(&Value::Sym(sym("E"))));
        assert!(!t.contains(&Value::Int(0)));
        assert_eq!(t.cardinality(), 3);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::Bool(true).to_string(), "true");
        assert_eq!(Value::Sym(sym("M")).to_string(), "M");
        assert_eq!(Type::Int(0, 5).to_string(), "int 0..5");
    }

    #[test]
    fn coercions() {
        assert_eq!(Value::Int(3).as_int(), Ok(3));
        assert!(Value::Bool(true).as_int().is_err());
        assert_eq!(Value::Bool(true).as_bool(), Ok(true));
        assert!(Value::Sym(sym("X")).as_bool().is_err());
    }
}
