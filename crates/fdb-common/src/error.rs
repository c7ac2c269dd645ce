//! Error handling shared across the workspace.

use std::fmt;

/// Convenient result alias used throughout the FDB crates.
pub type Result<T> = std::result::Result<T, FdbError>;

/// Errors surfaced by the FDB engine and its substrates.
///
/// The engine is a library, so errors carry enough structured information for
/// a caller to react programmatically (and a human-readable message for
/// logging); none of them abort the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FdbError {
    /// An attribute identifier was used that the catalog does not know about.
    UnknownAttribute {
        /// Offending attribute index.
        attr: u32,
    },
    /// A relation identifier was used that the catalog does not know about.
    UnknownRelation {
        /// Offending relation index.
        rel: u32,
    },
    /// A tuple of the wrong arity was inserted into a relation.
    ArityMismatch {
        /// Arity the relation expects.
        expected: usize,
        /// Arity of the offending tuple.
        actual: usize,
    },
    /// A query referenced an attribute that none of its relations provide.
    AttributeNotInQuery {
        /// Human readable attribute description.
        attr: String,
    },
    /// An f-tree violates the path constraint (the attributes of some relation
    /// do not all lie on a single root-to-leaf path).
    PathConstraintViolation {
        /// Explanation of which relation is split across paths.
        detail: String,
    },
    /// An operator was applied to nodes in a configuration it does not
    /// support (e.g. merging nodes that are not siblings).
    InvalidOperator {
        /// Explanation of the unsupported configuration.
        detail: String,
    },
    /// An f-representation is structurally inconsistent with its f-tree.
    MalformedRepresentation {
        /// Explanation of the inconsistency.
        detail: String,
    },
    /// The linear program handed to the solver is infeasible.
    InfeasibleProgram,
    /// The optimiser could not find any f-plan for the query.
    NoPlanFound {
        /// Explanation of why the search failed.
        detail: String,
    },
    /// A relation or query description was internally inconsistent.
    InvalidInput {
        /// Explanation of the inconsistency.
        detail: String,
    },
    /// Evaluation exceeded a caller-imposed resource limit (tuple budget or
    /// wall-clock deadline).  The experiment harness uses this to record
    /// timeouts exactly like the paper's missing data points.
    LimitExceeded {
        /// Explanation of which limit was hit.
        detail: String,
    },
    /// Evaluation ran past its wall-clock deadline (see
    /// [`crate::limits::QueryLimits::deadline`]) or was cancelled through
    /// its cancellation flag.  The partially built state is rolled back or
    /// discarded; the input representation is never left half-modified.
    DeadlineExceeded {
        /// The deadline that was exceeded, in milliseconds (0 when the
        /// evaluation was cancelled through the flag rather than timed out).
        limit_ms: u64,
    },
    /// Evaluation exceeded its work/memory budget (see
    /// [`crate::limits::QueryLimits::budget`]): the number of arena records
    /// processed or emitted overran the caller's bound, which caps both the
    /// time and the allocation a runaway query can consume.
    BudgetExceeded {
        /// The budget that was exhausted, in work units (≈ arena records).
        limit: u64,
    },
    /// The server refused the request at admission: the bounded in-flight
    /// window was full (load shedding instead of unbounded queueing) or the
    /// server was draining for shutdown.  The request was not executed at
    /// all; retrying later is safe.
    Overloaded {
        /// Requests in flight when the request was shed.
        in_flight: usize,
        /// The server's admission capacity.
        capacity: usize,
    },
    /// A serving worker panicked while executing the request.  The panic was
    /// caught at the request boundary: the worker thread survives, the rest
    /// of the batch completes, and only this request reports the failure.
    WorkerPanicked {
        /// The panic payload, when it was a string.
        detail: String,
    },
    /// A snapshot file failed verification on load: a section checksum did
    /// not match, a length prefix ran past the end of the file (torn write),
    /// or the decoded arena failed the structural validator.  Nothing was
    /// loaded; the caller's database is unchanged.
    SnapshotCorrupt {
        /// Which section/check failed and how.
        detail: String,
    },
    /// A snapshot file was written by an incompatible format version.  (A
    /// file that is not a snapshot at all — wrong magic number — reports
    /// [`FdbError::SnapshotCorrupt`] instead.)
    SnapshotVersionMismatch {
        /// The version number found in the file header.
        found: u32,
        /// The version this build reads and writes.
        expected: u32,
    },
    /// The operating system refused a snapshot read or write (missing file,
    /// permissions, disk full, …).  Distinct from [`FdbError::SnapshotCorrupt`]:
    /// the bytes were never obtained or never durably written, rather than
    /// obtained and found invalid.
    SnapshotIo {
        /// The failed operation, the path involved and the OS error.
        detail: String,
    },
    /// An `AVG` aggregate's 128-bit `SUM` or `COUNT` wrapped around.
    /// `COUNT`/`SUM` results keep their documented mod-2^128 semantics, but
    /// a mean computed from wrapped operands would be silently wrong, so the
    /// `AVG` path reports the overflow instead of returning a
    /// plausible-looking value.
    AggregateOverflow {
        /// Which operand wrapped and in which aggregate.
        detail: String,
    },
    /// A representation was registered under a name that is already taken.
    /// Names are stable handles for clients, so a second registration is
    /// refused instead of silently shadowing (or being shadowed by) the
    /// first; replace the existing slot via its id instead.
    DuplicateName {
        /// The contested representation name.
        name: String,
    },
}

impl fmt::Display for FdbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FdbError::UnknownAttribute { attr } => write!(f, "unknown attribute id {attr}"),
            FdbError::UnknownRelation { rel } => write!(f, "unknown relation id {rel}"),
            FdbError::ArityMismatch { expected, actual } => {
                write!(
                    f,
                    "arity mismatch: expected {expected} values, got {actual}"
                )
            }
            FdbError::AttributeNotInQuery { attr } => {
                write!(f, "attribute {attr} does not occur in the query")
            }
            FdbError::PathConstraintViolation { detail } => {
                write!(f, "f-tree violates the path constraint: {detail}")
            }
            FdbError::InvalidOperator { detail } => {
                write!(
                    f,
                    "operator applied in an unsupported configuration: {detail}"
                )
            }
            FdbError::MalformedRepresentation { detail } => {
                write!(f, "malformed f-representation: {detail}")
            }
            FdbError::InfeasibleProgram => write!(f, "linear program is infeasible"),
            FdbError::NoPlanFound { detail } => write!(f, "no f-plan found: {detail}"),
            FdbError::InvalidInput { detail } => write!(f, "invalid input: {detail}"),
            FdbError::LimitExceeded { detail } => write!(f, "resource limit exceeded: {detail}"),
            FdbError::DeadlineExceeded { limit_ms } => {
                if *limit_ms == 0 {
                    write!(f, "evaluation cancelled")
                } else {
                    write!(f, "deadline exceeded: evaluation ran past {limit_ms} ms")
                }
            }
            FdbError::BudgetExceeded { limit } => {
                write!(f, "budget exceeded: evaluation overran {limit} work units")
            }
            FdbError::Overloaded {
                in_flight,
                capacity,
            } => {
                write!(
                    f,
                    "server overloaded: {in_flight} requests in flight at capacity {capacity}"
                )
            }
            FdbError::WorkerPanicked { detail } => {
                write!(f, "serving worker panicked: {detail}")
            }
            FdbError::SnapshotCorrupt { detail } => {
                write!(f, "snapshot corrupt: {detail}")
            }
            FdbError::SnapshotVersionMismatch { found, expected } => {
                write!(
                    f,
                    "snapshot version mismatch: found version {found}, this build reads {expected}"
                )
            }
            FdbError::SnapshotIo { detail } => {
                write!(f, "snapshot io error: {detail}")
            }
            FdbError::AggregateOverflow { detail } => {
                write!(f, "aggregate overflow: {detail}")
            }
            FdbError::DuplicateName { name } => {
                write!(f, "representation name {name:?} is already registered")
            }
        }
    }
}

impl std::error::Error for FdbError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = FdbError::ArityMismatch {
            expected: 3,
            actual: 2,
        };
        assert!(e.to_string().contains("expected 3"));
        assert!(e.to_string().contains("got 2"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(FdbError::InfeasibleProgram, FdbError::InfeasibleProgram);
        assert_ne!(
            FdbError::UnknownAttribute { attr: 1 },
            FdbError::UnknownAttribute { attr: 2 }
        );
    }

    #[test]
    fn error_trait_is_implemented() {
        let e: Box<dyn std::error::Error> = Box::new(FdbError::InfeasibleProgram);
        assert!(e.to_string().contains("infeasible"));
    }
}
