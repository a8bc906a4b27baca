//! Simulated `/proc/net` connection tables, the package manager, and the
//! packet-to-app mapping strategies.
//!
//! Android offers no API for asking "which app owns this socket?", so MopEye
//! answers it the way the paper describes (§2.2): four pseudo files —
//! `/proc/net/tcp6`, `tcp`, `udp` and `udp6` — list every connection's
//! endpoints together with the UID of the owning app, and `PackageManager`
//! turns a UID into a package name. Parsing those files is expensive
//! (Figure 5(a)), which motivates the *lazy* mapping mechanism of §3.3.
//!
//! * [`table`] — the kernel-side connection table the pseudo files render,
//! * [`procfs`] — rendering and parsing of the `/proc/net/*` text format,
//! * [`package_manager`] — UID → package-name resolution,
//! * [`mapping`] — the three mapping strategies evaluated in the paper and
//!   its related work: eager (parse on every SYN), cache-based (Haystack)
//!   and lazy (MopEye).

#![forbid(unsafe_code)]

pub mod mapping;
pub mod package_manager;
pub mod procfs;
pub mod table;

pub use mapping::{
    CachedMapper, EagerMapper, LazyMapper, MappingOutcome, MappingStats, MappingStrategy,
};
pub use package_manager::PackageManager;
pub use procfs::{parse_proc_net, render_proc_net, ProcFile};
pub use table::{ConnectionEntry, ConnectionTable, Protocol, SocketStateCode};
