//! Machine, socket and NUMA-subdomain topology.
//!
//! The paper's hosts are dual-socket Xeons. Each socket has a set of memory
//! channels behind (logically) one or two memory controllers, an LLC, and a
//! UPI/QPI link to the peer socket. Enabling sub-NUMA clustering (SNC, called
//! Cluster-on-Die on older parts) splits the socket into two *subdomains*,
//! each owning half the channels and half the LLC.
//!
//! [`DomainId`] names an *allocation domain*: the whole socket when SNC is
//! off, or one subdomain when SNC is on. The memory solver works purely in
//! terms of domains.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifies a physical socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SocketId(pub usize);

/// Identifies a memory allocation domain: `(socket, subdomain)`.
///
/// When SNC is disabled the only valid subdomain index is 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DomainId {
    /// The socket this domain belongs to.
    pub socket: SocketId,
    /// Subdomain index within the socket (0 or 1 with SNC enabled, else 0).
    pub sub: u8,
}

impl DomainId {
    /// Convenience constructor.
    pub fn new(socket: usize, sub: u8) -> Self {
        DomainId {
            socket: SocketId(socket),
            sub,
        }
    }
}

impl fmt::Display for DomainId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}d{}", self.socket.0, self.sub)
    }
}

/// How the socket's memory channels are partitioned into allocation domains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum SncMode {
    /// The socket is one NUMA domain; all channels interleave.
    #[default]
    Disabled,
    /// Sub-NUMA clustering: the socket is split into two subdomains with
    /// half the channels *and half the LLC* each; subdomain-local accesses
    /// take a shorter path.
    Enabled,
    /// Software memory channel partitioning (Muralidhara et al., the
    /// paper's reference \[32\]): the OS page-colors each task's data to half
    /// the channels. Bandwidth is partitioned like SNC, but the LLC stays
    /// shared (full size for every domain) and there is no latency
    /// discount or sibling penalty — isolating what SNC's extra mechanisms
    /// contribute.
    ChannelPartition,
}

impl SncMode {
    /// Number of allocation domains per socket in this mode.
    pub fn domains_per_socket(self) -> u8 {
        match self {
            SncMode::Disabled => 1,
            SncMode::Enabled | SncMode::ChannelPartition => 2,
        }
    }
}

/// Static description of one socket.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SocketSpec {
    /// Number of physical cores.
    pub cores: usize,
    /// Hardware threads per core (2 = SMT enabled, as in all paper setups).
    pub smt_ways: usize,
    /// Number of DRAM channels.
    pub channels: usize,
    /// Peak bandwidth per channel in GB/s.
    pub channel_gbps: f64,
    /// Total LLC capacity in MiB.
    pub llc_mib: f64,
    /// Number of LLC ways (CAT allocation granularity).
    pub llc_ways: u32,
    /// Unloaded memory latency in ns with SNC disabled.
    pub base_latency_ns: f64,
    /// Multiplier on base latency for subdomain-local accesses with SNC on
    /// (< 1: the paper observes *better*-than-standalone performance at low
    /// pressure because SNC shortens the local path).
    pub snc_local_latency_factor: f64,
    /// Multiplier for accesses from one subdomain to the sibling subdomain.
    pub snc_sibling_latency_factor: f64,
}

impl SocketSpec {
    /// Peak socket memory bandwidth in GB/s.
    pub fn peak_gbps(&self) -> f64 {
        self.channels as f64 * self.channel_gbps
    }
}

impl Default for SocketSpec {
    /// A Skylake-SP-like socket: 24 cores, SMT2, 6 × DDR4-2666 channels
    /// (~21.3 GB/s each, ~128 GB/s per socket), 33 MiB 11-way LLC, ~85 ns
    /// unloaded latency. SNC shaves ~8 % off the local path and adds ~12 %
    /// to the sibling-subdomain path.
    fn default() -> Self {
        SocketSpec {
            cores: 24,
            smt_ways: 2,
            channels: 6,
            channel_gbps: 21.3,
            llc_mib: 33.0,
            llc_ways: 11,
            base_latency_ns: 85.0,
            snc_local_latency_factor: 0.92,
            snc_sibling_latency_factor: 1.12,
        }
    }
}

/// Static description of the whole machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineSpec {
    /// Per-socket specs (the paper's hosts are dual-socket).
    pub sockets: Vec<SocketSpec>,
    /// Cross-socket link (UPI/QPI) bandwidth per direction in GB/s.
    pub upi_gbps: f64,
    /// Added latency for a cross-socket access in ns.
    pub upi_latency_ns: f64,
    /// Coherence tax: extra victim-socket latency in ns per GB/s of inbound
    /// cross-socket traffic. Platform-dependent; large on the Cloud TPU host
    /// (Figure 15/16).
    pub coherence_tax_ns_per_gbps: f64,
    /// Fraction of channel capacity a remote access additionally consumes on
    /// the target domain for snoops/directory work.
    pub remote_snoop_overhead: f64,
    /// Core slowdown on a socket receiving cross-socket traffic: the socket's
    /// cores run at `1 / (1 + penalty * inbound_gbps)`. Models the
    /// coherence/directory stalls behind the Cloud TPU platform's outsized
    /// remote-traffic sensitivity (paper §VI-A, Figures 15/16).
    pub remote_inbound_core_penalty_per_gbps: f64,
}

impl MachineSpec {
    /// A dual-socket machine built from two default sockets.
    pub fn dual_socket() -> Self {
        MachineSpec {
            sockets: vec![SocketSpec::default(), SocketSpec::default()],
            upi_gbps: 41.6,
            upi_latency_ns: 65.0,
            coherence_tax_ns_per_gbps: 1.2,
            remote_snoop_overhead: 0.15,
            remote_inbound_core_penalty_per_gbps: 0.003,
        }
    }

    /// Number of sockets.
    pub fn socket_count(&self) -> usize {
        self.sockets.len()
    }

    /// Spec for a socket.
    ///
    /// # Panics
    ///
    /// Panics if the socket id is out of range.
    pub fn socket(&self, id: SocketId) -> &SocketSpec {
        &self.sockets[id.0]
    }

    /// All domain ids under the given SNC mode, in `(socket, sub)` order.
    pub fn domains(&self, snc: SncMode) -> Vec<DomainId> {
        let per = snc.domains_per_socket();
        let mut out = Vec::with_capacity(self.sockets.len() * per as usize);
        for s in 0..self.sockets.len() {
            for sub in 0..per {
                out.push(DomainId::new(s, sub));
            }
        }
        out
    }

    /// Peak bandwidth of one domain in GB/s under the given SNC mode.
    pub fn domain_peak_gbps(&self, domain: DomainId, snc: SncMode) -> f64 {
        let socket = self.socket(domain.socket);
        socket.peak_gbps() / snc.domains_per_socket() as f64
    }

    /// LLC capacity of one domain in MiB under the given SNC mode.
    ///
    /// SNC physically splits the LLC; channel partitioning leaves it whole.
    pub fn domain_llc_mib(&self, domain: DomainId, snc: SncMode) -> f64 {
        let socket = self.socket(domain.socket);
        match snc {
            SncMode::Enabled => socket.llc_mib / 2.0,
            SncMode::Disabled | SncMode::ChannelPartition => socket.llc_mib,
        }
    }

    /// Unloaded latency in ns for an access from `from` to `to`.
    ///
    /// Cross-socket accesses pay the UPI latency on top of the target
    /// domain's local latency. Within a socket, SNC local accesses get the
    /// local discount and sibling-subdomain accesses the sibling penalty.
    pub fn base_latency_ns(&self, from: DomainId, to: DomainId, snc: SncMode) -> f64 {
        let target = self.socket(to.socket);
        if from.socket != to.socket {
            return target.base_latency_ns + self.upi_latency_ns;
        }
        match snc {
            SncMode::Disabled | SncMode::ChannelPartition => target.base_latency_ns,
            SncMode::Enabled => {
                if from.sub == to.sub {
                    target.base_latency_ns * target.snc_local_latency_factor
                } else {
                    target.base_latency_ns * target.snc_sibling_latency_factor
                }
            }
        }
    }

    /// Validates internal consistency, returning a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.sockets.is_empty() {
            return Err("machine needs at least one socket".into());
        }
        for (i, s) in self.sockets.iter().enumerate() {
            if s.cores == 0 {
                return Err(format!("socket {i} has no cores"));
            }
            if s.channels == 0 || s.channel_gbps <= 0.0 {
                return Err(format!("socket {i} has no memory bandwidth"));
            }
            if s.llc_ways == 0 || s.llc_mib <= 0.0 {
                return Err(format!("socket {i} has no LLC"));
            }
            if s.base_latency_ns <= 0.0 {
                return Err(format!("socket {i} has non-positive latency"));
            }
            if s.smt_ways == 0 {
                return Err(format!("socket {i} has zero SMT ways"));
            }
        }
        if self.sockets.len() > 1 && self.upi_gbps <= 0.0 {
            return Err("multi-socket machine needs UPI bandwidth".into());
        }
        Ok(())
    }
}

impl Default for MachineSpec {
    fn default() -> Self {
        MachineSpec::dual_socket()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_machine_validates() {
        assert_eq!(MachineSpec::dual_socket().validate(), Ok(()));
    }

    #[test]
    fn peak_bandwidth_sums_channels() {
        let s = SocketSpec::default();
        assert!((s.peak_gbps() - 6.0 * 21.3).abs() < 1e-9);
    }

    #[test]
    fn domains_enumerate_per_mode() {
        let m = MachineSpec::dual_socket();
        assert_eq!(m.domains(SncMode::Disabled).len(), 2);
        assert_eq!(m.domains(SncMode::Enabled).len(), 4);
        assert_eq!(m.domains(SncMode::Enabled)[3], DomainId::new(1, 1));
    }

    #[test]
    fn snc_halves_domain_resources() {
        let m = MachineSpec::dual_socket();
        let d = DomainId::new(0, 0);
        let full = m.domain_peak_gbps(d, SncMode::Disabled);
        let half = m.domain_peak_gbps(d, SncMode::Enabled);
        assert!((full - 2.0 * half).abs() < 1e-9);
        assert!(
            (m.domain_llc_mib(d, SncMode::Disabled) - 2.0 * m.domain_llc_mib(d, SncMode::Enabled))
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn snc_local_latency_is_discounted() {
        let m = MachineSpec::dual_socket();
        let d0 = DomainId::new(0, 0);
        let d1 = DomainId::new(0, 1);
        let flat = m.base_latency_ns(d0, d0, SncMode::Disabled);
        let local = m.base_latency_ns(d0, d0, SncMode::Enabled);
        let sibling = m.base_latency_ns(d0, d1, SncMode::Enabled);
        assert!(local < flat, "SNC local path must be faster");
        assert!(sibling > flat, "sibling path must be slower");
    }

    #[test]
    fn cross_socket_latency_pays_upi() {
        let m = MachineSpec::dual_socket();
        let here = DomainId::new(0, 0);
        let there = DomainId::new(1, 0);
        let remote = m.base_latency_ns(here, there, SncMode::Disabled);
        let local = m.base_latency_ns(here, here, SncMode::Disabled);
        assert!((remote - local - m.upi_latency_ns).abs() < 1e-9);
    }

    #[test]
    fn validation_catches_defects() {
        let mut m = MachineSpec::dual_socket();
        m.sockets[1].channels = 0;
        assert!(m.validate().is_err());

        let mut m = MachineSpec::dual_socket();
        m.upi_gbps = 0.0;
        assert!(m.validate().is_err());

        let m = MachineSpec {
            sockets: vec![],
            ..MachineSpec::dual_socket()
        };
        assert!(m.validate().is_err());
    }

    #[test]
    fn domain_display_is_compact() {
        assert_eq!(DomainId::new(1, 0).to_string(), "s1d0");
    }

    #[test]
    fn channel_partition_splits_bw_but_not_llc_or_latency() {
        let m = MachineSpec::dual_socket();
        let d = DomainId::new(0, 0);
        // Bandwidth halves like SNC...
        assert!(
            (m.domain_peak_gbps(d, SncMode::ChannelPartition)
                - m.domain_peak_gbps(d, SncMode::Enabled))
            .abs()
                < 1e-9
        );
        // ...but the LLC stays whole...
        assert!(
            (m.domain_llc_mib(d, SncMode::ChannelPartition)
                - m.domain_llc_mib(d, SncMode::Disabled))
            .abs()
                < 1e-9
        );
        // ...and there is no latency discount or sibling penalty.
        let d1 = DomainId::new(0, 1);
        let flat = m.base_latency_ns(d, d, SncMode::Disabled);
        assert_eq!(m.base_latency_ns(d, d, SncMode::ChannelPartition), flat);
        assert_eq!(m.base_latency_ns(d, d1, SncMode::ChannelPartition), flat);
        assert_eq!(SncMode::ChannelPartition.domains_per_socket(), 2);
    }
}
