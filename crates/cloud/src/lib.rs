//! ZombieStack: the cloud operating system layer (§5).
//!
//! The paper builds its prototype on OpenStack: Nova does placement,
//! OpenStack Neat does consolidation, and a modified migration protocol
//! moves VMs whose memory is partly remote. This crate implements those
//! policies — plus the Oasis baseline the evaluation compares against —
//! as pure policy logic over abstract host/VM views ([`placement`],
//! [`consolidation`], [`oasis`], [`migration`]), which the
//! datacenter-scale simulator drives for Fig. 10.

pub mod consolidation;
pub mod migration;
pub mod oasis;
pub mod placement;

pub use consolidation::{ConsolidationMode, Neat};
pub use placement::{HostPowerState, HostView, NovaScheduler, VmView};
