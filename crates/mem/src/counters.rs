//! Performance-counter readouts.
//!
//! Kelp samples four measurements from the processor (paper §IV-D): socket
//! memory bandwidth, memory latency, memory saturation (the `FAST_ASSERTED`
//! duty cycle), and high-priority-subdomain bandwidth. [`MemCounters`] is the
//! solver's rendering of everything those counters would expose, read by the
//! runtime policies exactly the way Kelp reads the uncore PMU.

use crate::topology::{DomainId, SocketId};
use serde::{Deserialize, Serialize};

/// Counters for one allocation domain (socket or SNC subdomain).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DomainCounters {
    /// The domain.
    pub domain: DomainId,
    /// Consumed bandwidth in GB/s.
    pub bw_gbps: f64,
    /// Controller utilization in `[0, 1]`.
    pub utilization: f64,
    /// Loaded latency for domain-local accesses in ns.
    pub latency_ns: f64,
    /// Distress duty cycle attributable to this domain's controller.
    pub distress_duty: f64,
}

/// Counters for one socket.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SocketCounters {
    /// The socket.
    pub socket: SocketId,
    /// Total consumed bandwidth in GB/s across the socket's domains.
    pub bw_gbps: f64,
    /// Traffic-weighted average access latency in ns.
    pub avg_latency_ns: f64,
    /// Distress (`FAST_ASSERTED`) duty cycle in `[0, 1]` — the worst
    /// controller on the socket.
    pub distress_duty: f64,
    /// Core speed factor applied by backpressure (1.0 = unthrottled).
    pub core_speed_factor: f64,
}

/// Full counter snapshot from one solver step.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MemCounters {
    /// Per-domain counters, in machine domain order.
    pub domains: Vec<DomainCounters>,
    /// Per-socket counters, in socket order.
    pub sockets: Vec<SocketCounters>,
    /// Cross-socket link traffic in GB/s.
    pub upi_gbps: f64,
    /// Cross-socket link utilization in `[0, 1]`.
    pub upi_utilization: f64,
}

impl MemCounters {
    /// Counters for a domain, if present.
    pub fn domain(&self, d: DomainId) -> Option<&DomainCounters> {
        self.domains.iter().find(|c| c.domain == d)
    }

    /// Counters for a socket, if present.
    pub fn socket(&self, s: SocketId) -> Option<&SocketCounters> {
        self.sockets.iter().find(|c| c.socket == s)
    }

    /// Bandwidth of a domain in GB/s (0 if unknown).
    pub fn domain_bw(&self, d: DomainId) -> f64 {
        self.domain(d).map_or(0.0, |c| c.bw_gbps)
    }

    /// Distress duty attributable to a domain's controller (0 if unknown).
    pub fn domain_saturation(&self, d: DomainId) -> f64 {
        self.domain(d).map_or(0.0, |c| c.distress_duty)
    }

    /// Socket bandwidth in GB/s (0 if unknown).
    pub fn socket_bw(&self, s: SocketId) -> f64 {
        self.socket(s).map_or(0.0, |c| c.bw_gbps)
    }

    /// Socket average latency in ns (0 if unknown).
    pub fn socket_latency(&self, s: SocketId) -> f64 {
        self.socket(s).map_or(0.0, |c| c.avg_latency_ns)
    }

    /// Socket saturation duty cycle (0 if unknown).
    pub fn socket_saturation(&self, s: SocketId) -> f64 {
        self.socket(s).map_or(0.0, |c| c.distress_duty)
    }

    /// A corrupted snapshot with every observed reading multiplied by
    /// `factor` (duty cycles capped at 1.0). Models a transient measurement
    /// outlier: the structure (domain/socket lists) is preserved so lookups
    /// still resolve, but the values are garbage.
    pub fn scaled(&self, factor: f64) -> MemCounters {
        let f = factor.max(0.0);
        let mut c = self.clone();
        for d in &mut c.domains {
            d.bw_gbps *= f;
            d.utilization = (d.utilization * f).min(1.0);
            d.latency_ns *= f;
            d.distress_duty = (d.distress_duty * f).min(1.0);
        }
        for s in &mut c.sockets {
            s.bw_gbps *= f;
            s.avg_latency_ns *= f;
            s.distress_duty = (s.distress_duty * f).min(1.0);
        }
        c.upi_gbps *= f;
        c.upi_utilization = (c.upi_utilization * f).min(1.0);
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_helpers() {
        let c = MemCounters {
            domains: vec![DomainCounters {
                domain: DomainId::new(0, 1),
                bw_gbps: 12.0,
                utilization: 0.5,
                latency_ns: 90.0,
                distress_duty: 0.1,
            }],
            sockets: vec![SocketCounters {
                socket: SocketId(0),
                bw_gbps: 30.0,
                avg_latency_ns: 95.0,
                distress_duty: 0.2,
                core_speed_factor: 0.9,
            }],
            upi_gbps: 3.0,
            upi_utilization: 0.1,
        };
        assert_eq!(c.domain_bw(DomainId::new(0, 1)), 12.0);
        assert_eq!(c.domain_bw(DomainId::new(1, 0)), 0.0);
        assert_eq!(c.socket_bw(SocketId(0)), 30.0);
        assert_eq!(c.socket_latency(SocketId(0)), 95.0);
        assert_eq!(c.socket_saturation(SocketId(1)), 0.0);
    }

    #[test]
    fn default_is_empty() {
        let c = MemCounters::default();
        assert!(c.domains.is_empty());
        assert_eq!(c.socket_bw(SocketId(0)), 0.0);
    }
}
