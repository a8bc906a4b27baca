//! A compact DNS wire-format codec.
//!
//! MopEye measures DNS RTT by timing the gap between a UDP query and its
//! response (§2.4). The relay therefore needs to parse queries well enough to
//! extract the queried name (for the per-domain analysis in §4.2) and to match
//! responses to queries by transaction id. This module implements the subset
//! of RFC 1035 required for that: headers, questions, and A/AAAA/CNAME answer
//! records, including name compression on the parse path.

use std::net::{Ipv4Addr, Ipv6Addr};

use crate::error::{PacketError, Result};

/// Maximum length of a single DNS label.
pub const MAX_LABEL_LEN: usize = 63;
/// Maximum length of a full domain name on the wire.
pub const MAX_NAME_LEN: usize = 255;

/// DNS record/query types the measurement pipeline cares about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DnsType {
    /// IPv4 host address.
    A,
    /// IPv6 host address.
    Aaaa,
    /// Canonical name.
    Cname,
    /// Any other type, preserved numerically.
    Other(u16),
}

impl DnsType {
    /// Returns the wire value of the type.
    pub(crate) fn to_u16(self) -> u16 {
        match self {
            DnsType::A => 1,
            DnsType::Cname => 5,
            DnsType::Aaaa => 28,
            DnsType::Other(v) => v,
        }
    }

    /// Builds a type from its wire value.
    pub(crate) fn from_u16(v: u16) -> Self {
        match v {
            1 => DnsType::A,
            5 => DnsType::Cname,
            28 => DnsType::Aaaa,
            other => DnsType::Other(other),
        }
    }
}

/// Header flags of a DNS message (a simplified view).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DnsFlags {
    /// True for responses, false for queries.
    pub response: bool,
    /// Recursion desired.
    pub recursion_desired: bool,
    /// Recursion available (responses only).
    pub recursion_available: bool,
    /// Response code (0 = NOERROR, 3 = NXDOMAIN, ...).
    pub rcode: u8,
}

impl Default for DnsFlags {
    fn default() -> Self {
        Self { response: false, recursion_desired: true, recursion_available: false, rcode: 0 }
    }
}

impl DnsFlags {
    fn to_u16(self) -> u16 {
        let mut v = 0u16;
        if self.response {
            v |= 0x8000;
        }
        if self.recursion_desired {
            v |= 0x0100;
        }
        if self.recursion_available {
            v |= 0x0080;
        }
        v |= u16::from(self.rcode & 0x0f);
        v
    }

    fn from_u16(v: u16) -> Self {
        Self {
            response: v & 0x8000 != 0,
            recursion_desired: v & 0x0100 != 0,
            recursion_available: v & 0x0080 != 0,
            rcode: (v & 0x000f) as u8,
        }
    }
}

/// A question section entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsQuestion {
    /// The queried domain name, lower-case, without a trailing dot.
    pub name: String,
    /// The query type.
    pub qtype: DnsType,
}

/// The data carried by an answer record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DnsRecordData {
    /// An IPv4 address (A record).
    A(Ipv4Addr),
    /// An IPv6 address (AAAA record).
    Aaaa(Ipv6Addr),
    /// A canonical name.
    Cname(String),
    /// Raw bytes of any other record type.
    Raw(Vec<u8>),
}

/// An answer-section resource record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsRecord {
    /// The record owner name.
    pub name: String,
    /// The record type.
    pub rtype: DnsType,
    /// Time to live in seconds.
    pub ttl: u32,
    /// The record data.
    pub data: DnsRecordData,
}

/// A DNS message (query or response).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsMessage {
    /// Transaction id used to match responses to queries.
    pub id: u16,
    /// Header flags.
    pub flags: DnsFlags,
    /// Question section.
    pub questions: Vec<DnsQuestion>,
    /// Answer section.
    pub answers: Vec<DnsRecord>,
}

impl DnsMessage {
    /// Builds an A-record query for `name`.
    pub fn query(id: u16, name: &str) -> Self {
        Self {
            id,
            flags: DnsFlags::default(),
            questions: vec![DnsQuestion { name: name.to_ascii_lowercase(), qtype: DnsType::A }],
            answers: Vec::new(),
        }
    }

    /// Builds a response to `query` answering with `addrs`.
    pub fn answer(query: &DnsMessage, addrs: &[Ipv4Addr], ttl: u32) -> Self {
        let name = query.questions.first().map(|q| q.name.clone()).unwrap_or_default();
        Self {
            id: query.id,
            flags: DnsFlags {
                response: true,
                recursion_desired: query.flags.recursion_desired,
                recursion_available: true,
                rcode: 0,
            },
            questions: query.questions.clone(),
            answers: addrs
                .iter()
                .map(|a| DnsRecord {
                    name: name.clone(),
                    rtype: DnsType::A,
                    ttl,
                    data: DnsRecordData::A(*a),
                })
                .collect(),
        }
    }

    /// Builds an NXDOMAIN response to `query`.
    pub fn nxdomain(query: &DnsMessage) -> Self {
        Self {
            id: query.id,
            flags: DnsFlags {
                response: true,
                recursion_desired: true,
                recursion_available: true,
                rcode: 3,
            },
            questions: query.questions.clone(),
            answers: Vec::new(),
        }
    }

    /// Returns the first queried name, if any.
    pub fn queried_name(&self) -> Option<&str> {
        self.questions.first().map(|q| q.name.as_str())
    }

    /// Returns all IPv4 addresses present in the answer section.
    pub fn a_records(&self) -> Vec<Ipv4Addr> {
        self.answers
            .iter()
            .filter_map(|r| match r.data {
                DnsRecordData::A(a) => Some(a),
                _ => None,
            })
            .collect()
    }

    /// Parses a DNS message from a UDP payload.
    pub fn parse(data: &[u8]) -> Result<Self> {
        if data.len() < 12 {
            return Err(PacketError::Truncated {
                what: "DNS header",
                needed: 12,
                available: data.len(),
            });
        }
        let id = u16::from_be_bytes([data[0], data[1]]);
        let flags = DnsFlags::from_u16(u16::from_be_bytes([data[2], data[3]]));
        let qdcount = u16::from_be_bytes([data[4], data[5]]);
        let ancount = u16::from_be_bytes([data[6], data[7]]);
        let mut offset = 12;
        let mut questions = Vec::with_capacity(usize::from(qdcount));
        for _ in 0..qdcount {
            let (name, next) = read_name(data, offset)?;
            if next + 4 > data.len() {
                return Err(PacketError::MalformedDns("question truncated"));
            }
            let qtype = DnsType::from_u16(u16::from_be_bytes([data[next], data[next + 1]]));
            offset = next + 4; // Skip type and class.
            questions.push(DnsQuestion { name, qtype });
        }
        let mut answers = Vec::with_capacity(usize::from(ancount));
        for _ in 0..ancount {
            let (name, next) = read_name(data, offset)?;
            if next + 10 > data.len() {
                return Err(PacketError::MalformedDns("record header truncated"));
            }
            let rtype = DnsType::from_u16(u16::from_be_bytes([data[next], data[next + 1]]));
            let ttl = u32::from_be_bytes([
                data[next + 4],
                data[next + 5],
                data[next + 6],
                data[next + 7],
            ]);
            let rdlen = usize::from(u16::from_be_bytes([data[next + 8], data[next + 9]]));
            let rdata_start = next + 10;
            if rdata_start + rdlen > data.len() {
                return Err(PacketError::MalformedDns("record data truncated"));
            }
            let rdata = &data[rdata_start..rdata_start + rdlen];
            let record_data = match rtype {
                DnsType::A if rdlen == 4 => {
                    DnsRecordData::A(Ipv4Addr::new(rdata[0], rdata[1], rdata[2], rdata[3]))
                }
                DnsType::Aaaa if rdlen == 16 => {
                    let mut o = [0u8; 16];
                    o.copy_from_slice(rdata);
                    DnsRecordData::Aaaa(Ipv6Addr::from(o))
                }
                DnsType::Cname => {
                    let (cname, _) = read_name(data, rdata_start)?;
                    DnsRecordData::Cname(cname)
                }
                _ => DnsRecordData::Raw(rdata.to_vec()),
            };
            answers.push(DnsRecord { name, rtype, ttl, data: record_data });
            offset = rdata_start + rdlen;
        }
        Ok(Self { id, flags, questions, answers })
    }

    /// Serialises the message (no name compression on output).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(&self.id.to_be_bytes());
        out.extend_from_slice(&self.flags.to_u16().to_be_bytes());
        out.extend_from_slice(&(self.questions.len() as u16).to_be_bytes());
        out.extend_from_slice(&(self.answers.len() as u16).to_be_bytes());
        out.extend_from_slice(&[0, 0, 0, 0]); // NSCOUNT, ARCOUNT.
        for q in &self.questions {
            write_name(&q.name, &mut out);
            out.extend_from_slice(&q.qtype.to_u16().to_be_bytes());
            out.extend_from_slice(&1u16.to_be_bytes()); // Class IN.
        }
        for r in &self.answers {
            write_name(&r.name, &mut out);
            out.extend_from_slice(&r.rtype.to_u16().to_be_bytes());
            out.extend_from_slice(&1u16.to_be_bytes());
            out.extend_from_slice(&r.ttl.to_be_bytes());
            let rdata = match &r.data {
                DnsRecordData::A(a) => a.octets().to_vec(),
                DnsRecordData::Aaaa(a) => a.octets().to_vec(),
                DnsRecordData::Cname(name) => {
                    let mut buf = Vec::new();
                    write_name(name, &mut buf);
                    buf
                }
                DnsRecordData::Raw(raw) => raw.clone(),
            };
            out.extend_from_slice(&(rdata.len() as u16).to_be_bytes());
            out.extend_from_slice(&rdata);
        }
        out
    }
}

/// Reads a (possibly compressed) name starting at `offset`, returning the name
/// and the offset just past it in the *uncompressed* stream.
fn read_name(data: &[u8], mut offset: usize) -> Result<(String, usize)> {
    let mut labels: Vec<String> = Vec::new();
    let mut jumped = false;
    let mut end_offset = offset;
    let mut hops = 0;
    loop {
        let len = *data.get(offset).ok_or(PacketError::MalformedDns("name runs past buffer"))?;
        if len & 0xc0 == 0xc0 {
            // Compression pointer.
            let next = *data.get(offset + 1).ok_or(PacketError::MalformedDns("bad pointer"))?;
            let target = (usize::from(len & 0x3f) << 8) | usize::from(next);
            if !jumped {
                end_offset = offset + 2;
                jumped = true;
            }
            if target >= offset {
                return Err(PacketError::MalformedDns("forward compression pointer"));
            }
            offset = target;
            hops += 1;
            if hops > 16 {
                return Err(PacketError::MalformedDns("compression pointer loop"));
            }
            continue;
        }
        let len = usize::from(len);
        if len == 0 {
            if !jumped {
                end_offset = offset + 1;
            }
            break;
        }
        if len > MAX_LABEL_LEN {
            return Err(PacketError::MalformedDns("label too long"));
        }
        let start = offset + 1;
        let label = data
            .get(start..start + len)
            .ok_or(PacketError::MalformedDns("label runs past buffer"))?;
        labels.push(String::from_utf8_lossy(label).to_ascii_lowercase());
        offset = start + len;
    }
    let name = labels.join(".");
    if name.len() > MAX_NAME_LEN {
        return Err(PacketError::MalformedDns("name too long"));
    }
    Ok((name, end_offset))
}

fn write_name(name: &str, out: &mut Vec<u8>) {
    for label in name.split('.').filter(|l| !l.is_empty()) {
        let label = &label.as_bytes()[..label.len().min(MAX_LABEL_LEN)];
        out.push(label.len() as u8);
        out.extend_from_slice(label);
    }
    out.push(0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_roundtrip() {
        let q = DnsMessage::query(0x1234, "graph.facebook.com");
        let parsed = DnsMessage::parse(&q.to_bytes()).unwrap();
        assert_eq!(parsed.id, 0x1234);
        assert!(!parsed.flags.response);
        assert_eq!(parsed.queried_name(), Some("graph.facebook.com"));
        assert_eq!(parsed.questions[0].qtype, DnsType::A);
    }

    #[test]
    fn answer_roundtrip() {
        let q = DnsMessage::query(7, "www.google.com");
        let a = DnsMessage::answer(&q, &[Ipv4Addr::new(216, 58, 221, 132)], 300);
        let parsed = DnsMessage::parse(&a.to_bytes()).unwrap();
        assert!(parsed.flags.response);
        assert_eq!(parsed.id, 7);
        assert_eq!(parsed.a_records(), vec![Ipv4Addr::new(216, 58, 221, 132)]);
        assert_eq!(parsed.answers[0].ttl, 300);
    }

    #[test]
    fn nxdomain_has_rcode_3() {
        let q = DnsMessage::query(9, "does-not-exist.example");
        let n = DnsMessage::nxdomain(&q);
        let parsed = DnsMessage::parse(&n.to_bytes()).unwrap();
        assert_eq!(parsed.flags.rcode, 3);
        assert!(parsed.answers.is_empty());
    }

    #[test]
    fn name_compression_is_understood() {
        // Hand-craft a response where the answer name is a pointer to the
        // question name at offset 12.
        let q = DnsMessage::query(1, "a.example.com");
        let mut bytes = q.to_bytes();
        bytes[6..8].copy_from_slice(&1u16.to_be_bytes()); // ANCOUNT = 1.
        bytes.extend_from_slice(&[0xc0, 0x0c]); // Pointer to offset 12.
        bytes.extend_from_slice(&1u16.to_be_bytes()); // TYPE A.
        bytes.extend_from_slice(&1u16.to_be_bytes()); // CLASS IN.
        bytes.extend_from_slice(&60u32.to_be_bytes()); // TTL.
        bytes.extend_from_slice(&4u16.to_be_bytes()); // RDLENGTH.
        bytes.extend_from_slice(&[93, 184, 216, 34]);
        let parsed = DnsMessage::parse(&bytes).unwrap();
        assert_eq!(parsed.answers[0].name, "a.example.com");
        assert_eq!(parsed.a_records(), vec![Ipv4Addr::new(93, 184, 216, 34)]);
    }

    #[test]
    fn compression_loop_is_rejected() {
        let q = DnsMessage::query(1, "x.example.com");
        let mut bytes = q.to_bytes();
        bytes[6..8].copy_from_slice(&1u16.to_be_bytes());
        // A pointer that points at itself (offset = current position).
        let self_offset = bytes.len();
        bytes.extend_from_slice(&[0xc0 | ((self_offset >> 8) as u8), self_offset as u8]);
        bytes.extend_from_slice(&[0, 1, 0, 1, 0, 0, 0, 60, 0, 4, 1, 2, 3, 4]);
        assert!(DnsMessage::parse(&bytes).is_err());
    }

    #[test]
    fn truncated_header_is_rejected() {
        assert!(DnsMessage::parse(&[0; 5]).is_err());
    }

    #[test]
    fn uppercase_names_are_normalised() {
        let q = DnsMessage::query(3, "E3.WhatsApp.NET");
        assert_eq!(q.queried_name(), Some("e3.whatsapp.net"));
        let parsed = DnsMessage::parse(&q.to_bytes()).unwrap();
        assert_eq!(parsed.queried_name(), Some("e3.whatsapp.net"));
    }

    #[test]
    fn cname_answers_parse() {
        let q = DnsMessage::query(5, "cdn.example.com");
        let mut a = DnsMessage::answer(&q, &[], 60);
        a.answers.push(DnsRecord {
            name: "cdn.example.com".into(),
            rtype: DnsType::Cname,
            ttl: 60,
            data: DnsRecordData::Cname("edge.fbcdn.net".into()),
        });
        let parsed = DnsMessage::parse(&a.to_bytes()).unwrap();
        assert_eq!(parsed.answers[0].data, DnsRecordData::Cname("edge.fbcdn.net".into()));
    }

    #[test]
    fn aaaa_answers_roundtrip() {
        let q = DnsMessage::query(5, "v6.example.com");
        let mut a = DnsMessage::answer(&q, &[], 60);
        a.answers.push(DnsRecord {
            name: "v6.example.com".into(),
            rtype: DnsType::Aaaa,
            ttl: 60,
            data: DnsRecordData::Aaaa("2001:db8::1".parse().unwrap()),
        });
        let parsed = DnsMessage::parse(&a.to_bytes()).unwrap();
        assert_eq!(parsed.answers[0].data, DnsRecordData::Aaaa("2001:db8::1".parse().unwrap()));
    }

    #[test]
    fn dns_type_wire_values_roundtrip() {
        for t in [DnsType::A, DnsType::Aaaa, DnsType::Cname, DnsType::Other(16)] {
            assert_eq!(DnsType::from_u16(t.to_u16()), t);
        }
    }
}
