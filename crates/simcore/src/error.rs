//! Error types for simulation-model operations.

use crate::{ServerId, VmId};
use std::fmt;

/// Result alias for simcore operations.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors raised while building problems or manipulating assignments.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A VM id does not exist in the problem.
    UnknownVm(VmId),
    /// A server id does not exist in the problem.
    UnknownServer(ServerId),
    /// A VM was placed twice.
    AlreadyPlaced(VmId),
    /// Placing the VM would exceed the server's capacity in some time
    /// unit.
    CapacityExceeded {
        /// The VM being placed.
        vm: VmId,
        /// The server that cannot host it.
        server: ServerId,
    },
    /// A VM demand exceeds every server capacity, so no feasible
    /// allocation exists.
    InfeasibleVm(VmId),
    /// The audit found unplaced VMs (constraint (11) violated).
    Unplaced(VmId),
    /// Ids in the problem are not dense `0..n` indices.
    NonDenseIds,
    /// The problem contains no servers.
    NoServers,
    /// Ledgers handed to an assignment, as many as this, do not number
    /// one per server.
    LedgerCount(usize),
    /// A server's ledger was opened for another spec.
    LedgerSpec(ServerId),
    /// A server's ledger hosts a number of VMs other than the placement
    /// puts there.
    HostedCount(ServerId),
    /// A server's ledger holds more CPU or memory than the server has at
    /// some time unit.
    OverCapacity(ServerId),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownVm(id) => write!(f, "unknown vm id {id}"),
            Error::UnknownServer(id) => write!(f, "unknown server id {id}"),
            Error::AlreadyPlaced(id) => write!(f, "{id} is already placed"),
            Error::CapacityExceeded { vm, server } => {
                write!(f, "placing {vm} on {server} exceeds capacity")
            }
            Error::InfeasibleVm(id) => {
                write!(f, "{id} does not fit on any server even when empty")
            }
            Error::Unplaced(id) => write!(f, "{id} is not placed on any server"),
            Error::NonDenseIds => write!(f, "vm/server ids must be dense 0..n indices"),
            Error::NoServers => write!(f, "problem contains no servers"),
            Error::LedgerCount(n) => write!(f, "got {n} ledgers, not one per server"),
            Error::LedgerSpec(server) => write!(f, "the ledger of {server} has another spec"),
            Error::HostedCount(s) => write!(f, "the ledger of {s} disagrees with the placement"),
            Error::OverCapacity(server) => write!(f, "usage on {server} exceeds its capacity"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_lowercase_without_period() {
        let samples: Vec<Error> = vec![
            Error::UnknownVm(VmId(3)),
            Error::UnknownServer(ServerId(1)),
            Error::AlreadyPlaced(VmId(2)),
            Error::CapacityExceeded {
                vm: VmId(0),
                server: ServerId(0),
            },
            Error::InfeasibleVm(VmId(9)),
            Error::Unplaced(VmId(4)),
            Error::NonDenseIds,
            Error::NoServers,
            Error::LedgerCount(3),
            Error::LedgerSpec(ServerId(1)),
            Error::HostedCount(ServerId(0)),
            Error::OverCapacity(ServerId(0)),
        ];
        for e in samples {
            let s = e.to_string();
            assert!(!s.ends_with('.'), "{s}");
            assert!(s.chars().next().unwrap().is_lowercase(), "{s}");
        }
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err<E: std::error::Error + Send + Sync>(_: E) {}
        takes_err(Error::NoServers);
    }
}
