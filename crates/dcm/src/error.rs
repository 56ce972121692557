//! Fleet-aware error reporting.
//!
//! `capsim-ipmi` errors describe what happened on one wire; at fleet
//! scale that is useless without knowing *which* node's wire. [`DcmError`]
//! wraps every management failure with the node's identity so operators
//! (and tests) can act on it.

use std::fmt;

use capsim_ipmi::IpmiError;

use crate::manager::NodeId;

/// A management-plane failure, attributed to a node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DcmError {
    /// An IPMI transaction with a node failed.
    Ipmi { node: NodeId, name: String, source: IpmiError },
    /// The `NodeId` does not belong to this manager.
    UnknownNode(NodeId),
}

impl DcmError {
    /// The node the failure is attributed to.
    pub fn node(&self) -> NodeId {
        match self {
            DcmError::Ipmi { node, .. } | DcmError::UnknownNode(node) => *node,
        }
    }

    /// True for failures a retry at a later epoch might cure.
    pub fn is_transient(&self) -> bool {
        matches!(self, DcmError::Ipmi { source, .. } if source.is_transient())
    }
}

impl fmt::Display for DcmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DcmError::Ipmi { node, name, source } => {
                write!(f, "node {} ({name}): {source}", node.index())
            }
            DcmError::UnknownNode(n) => write!(f, "unknown node id {}", n.index()),
        }
    }
}

impl std::error::Error for DcmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DcmError::Ipmi { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_carry_node_identity() {
        let e = DcmError::Ipmi {
            node: NodeId::from_index(3),
            name: "rack1-n3".into(),
            source: IpmiError::TimedOut,
        };
        assert_eq!(e.node().index(), 3);
        assert!(e.is_transient());
        let msg = e.to_string();
        assert!(msg.contains("rack1-n3") && msg.contains("timed out"), "{msg}");
        let e = DcmError::Ipmi {
            node: NodeId::from_index(0),
            name: "n0".into(),
            source: IpmiError::ChannelClosed,
        };
        assert!(!e.is_transient());
    }
}
