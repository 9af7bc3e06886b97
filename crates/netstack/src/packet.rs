//! Simulated IPv6 packets.
//!
//! A [`Packet`] carries addressing, the class-of-service field, a byte size
//! (used for serialization-delay and throughput math — payload bytes are
//! never materialized) and a [`Payload`] describing what the packet is:
//! application data, a TCP segment, a control message, or an IPv6-in-IPv6
//! encapsulated inner packet (tunneling).
//!
//! # Examples
//!
//! ```
//! use fh_net::{Packet, Payload, ServiceClass, FlowId};
//! use fh_sim::SimTime;
//!
//! let src = "2001:db8:1::1".parse().unwrap();
//! let dst = "2001:db8:2::1".parse().unwrap();
//! let pkt = Packet::data(FlowId(1), 7, src, dst, ServiceClass::RealTime, 160, SimTime::ZERO);
//!
//! // Tunnel it from a MAP to a care-of address and back.
//! let tun = pkt.clone().encapsulate("2001:db8::abcd".parse().unwrap(), dst);
//! assert_eq!(tun.size, pkt.size + Packet::IPV6_HEADER);
//! let inner = tun.decapsulate().unwrap();
//! assert_eq!(inner.seq, 7);
//! ```

use std::net::Ipv6Addr;

use fh_sim::SimTime;
use serde::{Deserialize, Serialize};

use crate::class::ServiceClass;
use crate::msg::ControlMsg;

/// Identifies one end-to-end traffic flow (a source/sink pair).
///
/// Ids are dense by construction: the scenario builders mint them from a
/// counter, and they index the [`crate::NetStats`] per-flow ledger directly.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct FlowId(pub u32);

impl std::fmt::Display for FlowId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "flow{}", self.0)
    }
}

/// Identifies one TCP connection.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct ConnId(pub u32);

/// TCP segment header flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct TcpFlags {
    /// Acknowledgement number is valid.
    pub ack: bool,
    /// Connection-open segment.
    pub syn: bool,
    /// Connection-close segment.
    pub fin: bool,
}

/// The wire format of a TCP segment (behaviour lives in the `fh-tcp` crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TcpSegment {
    /// Which connection this segment belongs to.
    pub conn: ConnId,
    /// First sequence number carried (in bytes).
    pub seq: u64,
    /// Cumulative acknowledgement number (next byte expected).
    pub ack: u64,
    /// Payload length in bytes (0 for pure ACKs).
    pub len: u32,
    /// Header flags.
    pub flags: TcpFlags,
}

/// What a packet carries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Payload {
    /// Opaque application data (e.g. a CBR/UDP datagram).
    Data,
    /// A TCP segment.
    Tcp(TcpSegment),
    /// A signaling message (router advertisements, FMIPv6, HMIPv6, buffer
    /// management).
    ///
    /// Boxed: `ControlMsg` is by far the largest variant, and packets are
    /// cloned per hop through link queues and AR buffers. Keeping it behind
    /// a pointer roughly halves `size_of::<Packet>()` (see the layout
    /// regression test) so the data-plane clone path stops copying the full
    /// signaling enum.
    Control(Box<ControlMsg>),
    /// An IPv6-in-IPv6 encapsulated inner packet (tunnel).
    Encap(Box<Packet>),
}

/// A simulated IPv6 packet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Packet {
    /// End-to-end flow this packet belongs to (0 = control plane).
    pub flow: FlowId,
    /// Per-flow sequence number, assigned by the source.
    pub seq: u64,
    /// Source address.
    pub src: Ipv6Addr,
    /// Destination address.
    pub dst: Ipv6Addr,
    /// IPv6 class-of-service field (Table 3.1).
    pub class: ServiceClass,
    /// Total on-wire size in bytes (headers included).
    pub size: u32,
    /// When the source created the packet (for end-to-end delay).
    pub created: SimTime,
    /// IPv6 hop limit: decremented per forwarding hop, the packet dies at
    /// zero (the structural backstop against forwarding loops).
    pub hop_limit: u8,
    /// The packet body.
    pub payload: Payload,
}

impl Packet {
    /// Size in bytes of one IPv6 header, added per encapsulation layer.
    pub const IPV6_HEADER: u32 = 40;

    /// Default IPv6 hop limit.
    pub const DEFAULT_HOP_LIMIT: u8 = 64;

    /// Creates an application-data packet.
    #[must_use]
    pub fn data(
        flow: FlowId,
        seq: u64,
        src: Ipv6Addr,
        dst: Ipv6Addr,
        class: ServiceClass,
        size: u32,
        created: SimTime,
    ) -> Self {
        Packet {
            flow,
            seq,
            src,
            dst,
            class,
            size,
            created,
            hop_limit: Packet::DEFAULT_HOP_LIMIT,
            payload: Payload::Data,
        }
    }

    /// Creates a control-plane packet. Control packets ride in flow 0 with
    /// the high-priority class and their size follows the message's wire
    /// size.
    #[must_use]
    pub fn control(src: Ipv6Addr, dst: Ipv6Addr, msg: ControlMsg, created: SimTime) -> Self {
        let size = Packet::IPV6_HEADER + msg.wire_size();
        Packet {
            flow: FlowId(0),
            seq: 0,
            src,
            dst,
            class: ServiceClass::HighPriority,
            size,
            created,
            hop_limit: Packet::DEFAULT_HOP_LIMIT,
            payload: Payload::Control(Box::new(msg)),
        }
    }

    /// Creates a TCP packet of `seg.len` payload bytes plus headers.
    #[must_use]
    pub fn tcp(
        flow: FlowId,
        src: Ipv6Addr,
        dst: Ipv6Addr,
        class: ServiceClass,
        seg: TcpSegment,
        created: SimTime,
    ) -> Self {
        Packet {
            flow,
            seq: seg.seq,
            src,
            dst,
            class,
            size: Packet::IPV6_HEADER + 20 + seg.len,
            created,
            hop_limit: Packet::DEFAULT_HOP_LIMIT,
            payload: Payload::Tcp(seg),
        }
    }

    /// Wraps this packet in an outer IPv6 header (IPv6-in-IPv6 tunnel entry).
    ///
    /// The outer packet inherits the inner class-of-service field so
    /// class-aware treatment survives tunneling, exactly as the scheme
    /// requires on the PAR→NAR tunnel.
    #[must_use]
    #[inline]
    pub fn encapsulate(self, tunnel_src: Ipv6Addr, tunnel_dst: Ipv6Addr) -> Packet {
        Packet {
            flow: self.flow,
            seq: self.seq,
            src: tunnel_src,
            dst: tunnel_dst,
            class: self.class,
            size: self.size + Packet::IPV6_HEADER,
            created: self.created,
            hop_limit: Packet::DEFAULT_HOP_LIMIT,
            payload: Payload::Encap(Box::new(self)),
        }
    }

    /// Unwraps one layer of tunneling. Returns `None` if this packet is not
    /// encapsulated.
    #[must_use]
    #[inline]
    pub fn decapsulate(self) -> Option<Packet> {
        match self.payload {
            Payload::Encap(inner) => Some(*inner),
            _ => None,
        }
    }

    /// The innermost packet, following any number of encapsulations.
    #[must_use]
    pub fn innermost(&self) -> &Packet {
        match &self.payload {
            Payload::Encap(inner) => inner.innermost(),
            _ => self,
        }
    }

    /// Borrow of the control message, if this is a control packet.
    #[must_use]
    pub fn as_control(&self) -> Option<&ControlMsg> {
        match &self.payload {
            Payload::Control(msg) => Some(msg.as_ref()),
            _ => None,
        }
    }

    /// The effective buffering class (Table 3.1: unspecified → best effort).
    #[must_use]
    pub fn effective_class(&self) -> ServiceClass {
        self.class.effective()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::ControlMsg;

    fn addr(n: u16) -> Ipv6Addr {
        Ipv6Addr::new(0x2001, 0xdb8, n, 0, 0, 0, 0, 1)
    }

    fn sample() -> Packet {
        Packet::data(
            FlowId(3),
            11,
            addr(1),
            addr(2),
            ServiceClass::HighPriority,
            160,
            SimTime::from_millis(5),
        )
    }

    #[test]
    fn encapsulation_adds_one_header_and_preserves_class() {
        let pkt = sample();
        let tun = pkt.clone().encapsulate(addr(9), addr(8));
        assert_eq!(tun.size, 200);
        assert_eq!(tun.class, ServiceClass::HighPriority);
        assert_eq!(tun.src, addr(9));
        assert_eq!(tun.dst, addr(8));
        assert_eq!(tun.decapsulate().unwrap(), pkt);
    }

    #[test]
    fn nested_tunnels_unwrap_in_order() {
        let pkt = sample();
        let t1 = pkt.clone().encapsulate(addr(9), addr(8));
        let t2 = t1.clone().encapsulate(addr(7), addr(6));
        assert_eq!(t2.size, pkt.size + 2 * Packet::IPV6_HEADER);
        assert_eq!(t2.innermost(), &pkt);
        assert_eq!(t2.decapsulate().unwrap(), t1);
    }

    #[test]
    fn decapsulate_plain_packet_is_none() {
        assert!(sample().decapsulate().is_none());
        assert_eq!(sample().innermost(), &sample());
    }

    #[test]
    fn control_packets_ride_flow_zero() {
        let msg = ControlMsg::RouterSolicitation;
        let pkt = Packet::control(addr(1), addr(2), msg.clone(), SimTime::ZERO);
        assert_eq!(pkt.flow, FlowId(0));
        assert_eq!(pkt.as_control(), Some(&msg));
        assert!(pkt.size > Packet::IPV6_HEADER);
        assert!(sample().as_control().is_none());
    }

    #[test]
    fn tcp_packet_size_includes_headers() {
        let seg = TcpSegment {
            conn: ConnId(1),
            seq: 1000,
            ack: 0,
            len: 960,
            flags: TcpFlags::default(),
        };
        let pkt = Packet::tcp(
            FlowId(1),
            addr(1),
            addr(2),
            ServiceClass::BestEffort,
            seg,
            SimTime::ZERO,
        );
        assert_eq!(pkt.size, 40 + 20 + 960);
        assert_eq!(pkt.seq, 1000);
    }

    #[test]
    fn effective_class_folds_unspecified() {
        let mut pkt = sample();
        pkt.class = ServiceClass::Unspecified;
        assert_eq!(pkt.effective_class(), ServiceClass::BestEffort);
    }

    #[test]
    fn packet_layout_stays_small() {
        // Layout regression pins. Packets are cloned on every hop (link
        // queues, AR buffers, tunnels), so their size is a hot-path
        // constant. The seed laid ControlMsg (104 bytes) inline in Payload,
        // making every Packet 168 bytes; boxing the control variant brought
        // it down. Raising either pin needs a deliberate decision, not a
        // drive-by field.
        assert!(
            std::mem::size_of::<Payload>() <= 40,
            "Payload grew to {} bytes",
            std::mem::size_of::<Payload>()
        );
        // Exact (what `netstack.packet.size_bytes` reports; the seed's was
        // 168), so a new field fails here by count.
        assert_eq!(std::mem::size_of::<Packet>(), 96);
    }
}
