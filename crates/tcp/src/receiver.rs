//! The TCP receiver: cumulative, immediate acknowledgements.
//!
//! Mirrors the ns-2 `TCPSink`: every arriving data segment is answered at
//! once with a cumulative ACK (no delayed-ACK timer), out-of-order
//! segments are held and acknowledged with duplicate ACKs, and the
//! in-order byte stream length is what the application sees.

use std::collections::BTreeMap;
use std::net::Ipv6Addr;

use fh_sim::SimTime;
use serde::{Deserialize, Serialize};

use fh_net::{ConnId, FlowId, Packet, ServiceClass, TcpFlags, TcpSegment};

/// Receiver-side trace for the sequence plots.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ReceiverTrace {
    /// `(time, segment number)` of every data arrival.
    pub received: Vec<(SimTime, u64)>,
    /// `(time, bytes)` per arrival, for throughput binning (Fig 4.14).
    pub bytes: Vec<(SimTime, u64)>,
}

/// A TCP receiver for one connection.
#[derive(Debug)]
pub struct TcpReceiver {
    conn: ConnId,
    flow: FlowId,
    addr: Ipv6Addr,
    peer: Ipv6Addr,
    class: ServiceClass,
    rcv_nxt: u64,
    out_of_order: BTreeMap<u64, u32>,
    /// Arrival trace.
    pub trace: ReceiverTrace,
    /// Duplicate ACKs generated (a hole was seen).
    pub dupacks_sent: u64,
}

impl TcpReceiver {
    /// Creates a receiver answering to `peer`.
    #[must_use]
    pub fn new(
        conn: ConnId,
        flow: FlowId,
        addr: Ipv6Addr,
        peer: Ipv6Addr,
        class: ServiceClass,
    ) -> Self {
        TcpReceiver {
            conn,
            flow,
            addr,
            peer,
            class,
            rcv_nxt: 0,
            out_of_order: BTreeMap::new(),
            trace: ReceiverTrace::default(),
            dupacks_sent: 0,
        }
    }

    /// Bytes delivered in order to the application so far.
    #[must_use]
    pub fn bytes_in_order(&self) -> u64 {
        self.rcv_nxt
    }

    /// Segments currently parked out of order.
    #[must_use]
    pub fn out_of_order_len(&self) -> usize {
        self.out_of_order.len()
    }

    /// Processes a data segment and returns the ACK to send back.
    /// Returns `None` for segments of other connections.
    pub fn on_segment(&mut self, now: SimTime, seg: &TcpSegment) -> Option<Packet> {
        if seg.conn != self.conn || seg.len == 0 {
            return None;
        }
        let mss = u64::from(seg.len);
        self.trace.received.push((now, seg.seq / mss.max(1)));
        self.trace.bytes.push((now, u64::from(seg.len)));
        let end = seg.seq + u64::from(seg.len);
        if seg.seq <= self.rcv_nxt {
            // In order (or old retransmission): advance and absorb any
            // parked continuation.
            self.rcv_nxt = self.rcv_nxt.max(end);
            while let Some((&s, &l)) = self.out_of_order.iter().next() {
                if s <= self.rcv_nxt {
                    self.rcv_nxt = self.rcv_nxt.max(s + u64::from(l));
                    self.out_of_order.remove(&s);
                } else {
                    break;
                }
            }
        } else {
            // A hole: park and emit a duplicate ACK.
            self.out_of_order.insert(seg.seq, seg.len);
            self.dupacks_sent += 1;
        }
        let ack = TcpSegment {
            conn: self.conn,
            seq: 0,
            ack: self.rcv_nxt,
            len: 0,
            flags: TcpFlags {
                ack: true,
                ..TcpFlags::default()
            },
        };
        Some(Packet::tcp(
            self.flow, self.addr, self.peer, self.class, ack, now,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rx() -> TcpReceiver {
        TcpReceiver::new(
            ConnId(1),
            FlowId(1),
            "2001:db8::2".parse().unwrap(),
            "2001:db8::1".parse().unwrap(),
            ServiceClass::BestEffort,
        )
    }

    fn seg(seq: u64) -> TcpSegment {
        TcpSegment {
            conn: ConnId(1),
            seq,
            ack: 0,
            len: 1000,
            flags: TcpFlags::default(),
        }
    }

    #[test]
    fn in_order_stream_advances() {
        let mut r = rx();
        for i in 0..5 {
            let ack = r
                .on_segment(SimTime::from_millis(i), &seg(i * 1000))
                .unwrap();
            match &ack.payload {
                fh_net::Payload::Tcp(a) => assert_eq!(a.ack, (i + 1) * 1000),
                _ => panic!("expected tcp ack"),
            }
        }
        assert_eq!(r.bytes_in_order(), 5000);
        assert_eq!(r.dupacks_sent, 0);
    }

    #[test]
    fn hole_generates_dupacks_then_heals() {
        let mut r = rx();
        let _ = r.on_segment(SimTime::ZERO, &seg(0));
        // Segment 1 lost; 2, 3, 4 arrive.
        for s in [2000, 3000, 4000] {
            let ack = r.on_segment(SimTime::from_millis(1), &seg(s)).unwrap();
            match &ack.payload {
                fh_net::Payload::Tcp(a) => assert_eq!(a.ack, 1000, "dup ack at the hole"),
                _ => unreachable!(),
            }
        }
        assert_eq!(r.dupacks_sent, 3);
        assert_eq!(r.out_of_order_len(), 3);
        // Retransmission fills the hole: cumulative ack jumps.
        let ack = r.on_segment(SimTime::from_millis(2), &seg(1000)).unwrap();
        match &ack.payload {
            fh_net::Payload::Tcp(a) => assert_eq!(a.ack, 5000),
            _ => unreachable!(),
        }
        assert_eq!(r.out_of_order_len(), 0);
    }

    #[test]
    fn duplicate_arrivals_are_harmless() {
        let mut r = rx();
        let _ = r.on_segment(SimTime::ZERO, &seg(0));
        let ack = r.on_segment(SimTime::from_millis(1), &seg(0)).unwrap();
        match &ack.payload {
            fh_net::Payload::Tcp(a) => assert_eq!(a.ack, 1000),
            _ => unreachable!(),
        }
        assert_eq!(r.bytes_in_order(), 1000);
    }

    #[test]
    fn foreign_and_empty_segments_ignored() {
        let mut r = rx();
        let foreign = TcpSegment {
            conn: ConnId(7),
            ..seg(0)
        };
        assert!(r.on_segment(SimTime::ZERO, &foreign).is_none());
        let empty = TcpSegment { len: 0, ..seg(0) };
        assert!(r.on_segment(SimTime::ZERO, &empty).is_none());
    }
}
