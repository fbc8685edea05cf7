//! The protocol intermediate representation the finder analyzes.
//!
//! The paper's finder is a program analysis over the target system's
//! source (§5, §7 b). Here the distributed protocol is modelled in a
//! small IR: functions contain loops over named collections, calls,
//! branches guarded by workload predicates, and effectful statements
//! (sends, disk I/O, locks, clock reads). Collections annotated
//! `@scaledep` (step a, "<30 LOC of annotations") carry a symbolic size;
//! loops over them are what makes a function scale-dependent.

use std::collections::BTreeMap;

use crate::complexity::Degree;

/// A named collection with a symbolic size.
#[derive(Clone, Debug)]
pub struct Collection {
    /// Collection name (e.g. `"ring_table"`).
    pub name: String,
    /// Whether the developer annotated it `@scaledep`.
    pub scale_dep: bool,
    /// Symbolic size per iteration of a loop over it (e.g. `N·P` for the
    /// ring table, `M` for a change list). Non-scale-dep collections use
    /// `Degree::CONST`.
    pub size: Degree,
}

/// One statement in a function body.
#[derive(Clone, Debug)]
pub enum Stmt {
    /// A loop over a named collection; cost = |collection| × body.
    Loop {
        /// Name of the collection iterated.
        over: String,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// A sort of a named collection (|c|·log|c| comparisons).
    Sort {
        /// Name of the collection sorted.
        over: String,
    },
    /// A binary search over a named collection (log|c|).
    BinarySearch {
        /// Name of the collection searched.
        over: String,
    },
    /// A call to another function in the program.
    Call {
        /// Callee name.
        callee: String,
    },
    /// A branch guarded by a workload predicate; both arms analyzed.
    Branch {
        /// Human-readable predicate (e.g. `"bootstrap_from_scratch"`).
        condition: String,
        /// Taken when the predicate holds.
        then_body: Vec<Stmt>,
        /// Taken otherwise.
        else_body: Vec<Stmt>,
    },
    /// Constant-cost local computation.
    Compute,
    /// Sends a network message (side effect: not PIL-safe).
    SendMessage,
    /// Disk I/O (side effect: not PIL-safe).
    DiskIo,
    /// Acquires a named lock (blocking: not PIL-safe).
    AcquireLock {
        /// Lock name.
        lock: String,
    },
    /// Releases a named lock.
    ReleaseLock {
        /// Lock name.
        lock: String,
    },
    /// Reads the wall clock or RNG (nondeterministic: not memoizable).
    ReadClock,
}

/// A function in the modelled protocol.
#[derive(Clone, Debug)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// Approximate source size, for "loops span 1000+ LOC" style
    /// reporting.
    pub loc: u32,
    /// Body statements.
    pub body: Vec<Stmt>,
}

/// A whole modelled protocol: collections plus functions.
#[derive(Clone, Debug, Default)]
pub struct Program {
    /// Collections by name.
    pub collections: BTreeMap<String, Collection>,
    /// Functions by name.
    pub functions: BTreeMap<String, Function>,
}

/// Errors detected while validating a program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IrError {
    /// A loop/sort/search references an unknown collection.
    UnknownCollection(String, String),
    /// A call references an unknown function.
    UnknownFunction(String, String),
}

impl std::fmt::Display for IrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IrError::UnknownCollection(func, c) => {
                write!(f, "function '{func}' references unknown collection '{c}'")
            }
            IrError::UnknownFunction(func, callee) => {
                write!(f, "function '{func}' calls unknown function '{callee}'")
            }
        }
    }
}

impl std::error::Error for IrError {}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Declares a collection.
    pub fn collection(&mut self, name: &str, scale_dep: bool, size: Degree) -> &mut Self {
        self.collections.insert(
            name.to_string(),
            Collection {
                name: name.to_string(),
                scale_dep,
                size,
            },
        );
        self
    }

    /// Declares a function.
    pub fn function(&mut self, name: &str, loc: u32, body: Vec<Stmt>) -> &mut Self {
        self.functions.insert(
            name.to_string(),
            Function {
                name: name.to_string(),
                loc,
                body,
            },
        );
        self
    }

    /// Validates referential integrity of loops and calls.
    pub fn validate(&self) -> Result<(), Vec<IrError>> {
        let mut errs = Vec::new();
        for f in self.functions.values() {
            self.validate_body(&f.name, &f.body, &mut errs);
        }
        if errs.is_empty() {
            Ok(())
        } else {
            Err(errs)
        }
    }

    fn validate_body(&self, func: &str, body: &[Stmt], errs: &mut Vec<IrError>) {
        for st in body {
            match st {
                Stmt::Loop { over, body } => {
                    if !self.collections.contains_key(over) {
                        errs.push(IrError::UnknownCollection(func.into(), over.clone()));
                    }
                    self.validate_body(func, body, errs);
                }
                Stmt::Sort { over } | Stmt::BinarySearch { over }
                    if !self.collections.contains_key(over) =>
                {
                    errs.push(IrError::UnknownCollection(func.into(), over.clone()));
                }
                Stmt::Call { callee } if !self.functions.contains_key(callee) => {
                    errs.push(IrError::UnknownFunction(func.into(), callee.clone()));
                }
                Stmt::Branch {
                    then_body,
                    else_body,
                    ..
                } => {
                    self.validate_body(func, then_body, errs);
                    self.validate_body(func, else_body, errs);
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_validate_ok() {
        let mut p = Program::new();
        p.collection("ring", true, Degree::ring());
        p.function(
            "f",
            10,
            vec![Stmt::Loop {
                over: "ring".into(),
                body: vec![Stmt::Compute],
            }],
        );
        p.function("g", 5, vec![Stmt::Call { callee: "f".into() }]);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn unknown_collection_caught() {
        let mut p = Program::new();
        p.function(
            "f",
            1,
            vec![Stmt::Loop {
                over: "nope".into(),
                body: vec![],
            }],
        );
        let errs = p.validate().unwrap_err();
        assert_eq!(
            errs,
            vec![IrError::UnknownCollection("f".into(), "nope".into())]
        );
        assert!(errs[0].to_string().contains("unknown collection"));
    }

    #[test]
    fn unknown_callee_caught_in_nested_branch() {
        let mut p = Program::new();
        p.function(
            "f",
            1,
            vec![Stmt::Branch {
                condition: "c".into(),
                then_body: vec![Stmt::Call {
                    callee: "ghost".into(),
                }],
                else_body: vec![],
            }],
        );
        let errs = p.validate().unwrap_err();
        assert_eq!(errs.len(), 1);
        assert!(matches!(errs[0], IrError::UnknownFunction(_, _)));
    }

    #[test]
    fn sort_and_search_validate_collections() {
        let mut p = Program::new();
        p.collection("xs", false, Degree::CONST);
        p.function(
            "f",
            1,
            vec![
                Stmt::Sort { over: "xs".into() },
                Stmt::BinarySearch { over: "ys".into() },
            ],
        );
        let errs = p.validate().unwrap_err();
        assert_eq!(errs.len(), 1);
    }
}
