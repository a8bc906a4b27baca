//! Rendering and parsing of the `/proc/net/tcp|tcp6|udp|udp6` text format.
//!
//! The format is the real kernel one (hex-encoded little-endian addresses,
//! hex ports, hex state code, UID in decimal), so the parser here would work
//! unchanged against a real Android `/proc/net/tcp`. The simulation renders
//! the pseudo files from the [`ConnectionTable`] and the mappers parse them
//! back — paying the parse cost that Figure 5(a) measures.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use mop_packet::Endpoint;

use crate::table::{ConnectionEntry, ConnectionTable, Protocol, SocketStateCode};

/// A rendered pseudo file: its protocol and its text content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcFile {
    /// Which file this is.
    pub protocol: Protocol,
    /// The full text, including the header line.
    pub content: String,
}

/// Renders one pseudo file from the table.
pub fn render_proc_net(table: &ConnectionTable, protocol: Protocol) -> ProcFile {
    let mut content = String::with_capacity(4096);
    content.push_str(
        "  sl  local_address rem_address   st tx_queue rx_queue tr tm->when retrnsmt   uid  timeout inode\n",
    );
    for (sl, entry) in table.entries_for(protocol).iter().enumerate() {
        content.push_str(&format!(
            "{:4}: {} {} {} 00000000:00000000 00:00000000 00000000 {:5}        0 {}\n",
            sl,
            encode_endpoint(&entry.local),
            encode_endpoint(&entry.remote),
            entry.state.code(),
            entry.uid,
            entry.inode,
        ));
    }
    ProcFile { protocol, content }
}

/// Parses a pseudo file back into entries. Lines that do not parse are
/// skipped, matching the tolerant behaviour required on real devices where
/// vendors occasionally extend the format.
pub fn parse_proc_net(file: &ProcFile) -> Vec<ConnectionEntry> {
    let mut entries = Vec::new();
    for line in file.content.lines().skip(1) {
        if let Some(entry) = parse_line(line, file.protocol) {
            entries.push(entry);
        }
    }
    entries
}

fn parse_line(line: &str, protocol: Protocol) -> Option<ConnectionEntry> {
    let mut fields = line.split_whitespace();
    let _sl = fields.next()?;
    let local = decode_endpoint(fields.next()?)?;
    let remote = decode_endpoint(fields.next()?)?;
    let state = SocketStateCode::from_code(fields.next()?);
    // tx_queue:rx_queue, tr:tm->when, retrnsmt.
    let _ = fields.next()?;
    let _ = fields.next()?;
    let _ = fields.next()?;
    let uid: u32 = fields.next()?.parse().ok()?;
    let _timeout = fields.next()?;
    let inode: u64 = fields.next()?.parse().ok()?;
    Some(ConnectionEntry { protocol, local, remote, state, uid, inode })
}

/// Encodes an endpoint the way the kernel does: IPv4 as 8 hex digits in
/// little-endian byte order, IPv6 as 32 hex digits in four little-endian
/// 32-bit groups, followed by `:PORT` in hex.
fn encode_endpoint(endpoint: &Endpoint) -> String {
    let addr = match endpoint.addr {
        IpAddr::V4(v4) => {
            let o = v4.octets();
            format!("{:02X}{:02X}{:02X}{:02X}", o[3], o[2], o[1], o[0])
        }
        IpAddr::V6(v6) => {
            let o = v6.octets();
            let mut s = String::with_capacity(32);
            for group in o.chunks(4) {
                s.push_str(&format!(
                    "{:02X}{:02X}{:02X}{:02X}",
                    group[3], group[2], group[1], group[0]
                ));
            }
            s
        }
    };
    format!("{}:{:04X}", addr, endpoint.port)
}

fn decode_endpoint(text: &str) -> Option<Endpoint> {
    let (addr_hex, port_hex) = text.rsplit_once(':')?;
    let port = u16::from_str_radix(port_hex, 16).ok()?;
    let addr: IpAddr = match addr_hex.len() {
        8 => {
            let raw = u32::from_str_radix(addr_hex, 16).ok()?;
            let bytes = raw.to_be_bytes();
            Ipv4Addr::new(bytes[3], bytes[2], bytes[1], bytes[0]).into()
        }
        32 => {
            let mut octets = [0u8; 16];
            for (i, chunk) in addr_hex.as_bytes().chunks(8).enumerate() {
                let chunk = std::str::from_utf8(chunk).ok()?;
                let raw = u32::from_str_radix(chunk, 16).ok()?;
                let bytes = raw.to_be_bytes();
                octets[i * 4] = bytes[3];
                octets[i * 4 + 1] = bytes[2];
                octets[i * 4 + 2] = bytes[1];
                octets[i * 4 + 3] = bytes[0];
            }
            Ipv6Addr::from(octets).into()
        }
        _ => return None,
    };
    Some(Endpoint::new(addr, port))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mop_packet::FourTuple;

    fn table_with_entries() -> ConnectionTable {
        let mut table = ConnectionTable::new();
        table.register(
            FourTuple::new(Endpoint::v4(10, 0, 0, 2, 40000), Endpoint::v4(31, 13, 79, 251, 443)),
            true,
            10123,
            SocketStateCode::Established,
        );
        table.register(
            FourTuple::new(Endpoint::v4(10, 0, 0, 2, 40001), Endpoint::v4(216, 58, 221, 132, 443)),
            true,
            10456,
            SocketStateCode::SynSent,
        );
        table.register(
            FourTuple::new(
                Endpoint::new("fe80::2".parse::<Ipv6Addr>().unwrap(), 40002),
                Endpoint::new("2a03:2880:f117::25".parse::<Ipv6Addr>().unwrap(), 443),
            ),
            true,
            10789,
            SocketStateCode::Established,
        );
        table.register(
            FourTuple::new(Endpoint::v4(10, 0, 0, 2, 41000), Endpoint::v4(192, 168, 1, 1, 53)),
            false,
            10123,
            SocketStateCode::Close,
        );
        table
    }

    #[test]
    fn ipv4_endpoint_encoding_matches_kernel_format() {
        // 10.0.0.2:40000 -> little-endian hex 0200000A, port 9C40.
        let encoded = encode_endpoint(&Endpoint::v4(10, 0, 0, 2, 40000));
        assert_eq!(encoded, "0200000A:9C40");
        assert_eq!(decode_endpoint(&encoded).unwrap(), Endpoint::v4(10, 0, 0, 2, 40000));
    }

    #[test]
    fn render_and_parse_tcp_roundtrips() {
        let table = table_with_entries();
        let file = render_proc_net(&table, Protocol::Tcp);
        assert!(file.content.starts_with("  sl"));
        let parsed = parse_proc_net(&file);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].uid, 10123);
        assert_eq!(parsed[0].local, Endpoint::v4(10, 0, 0, 2, 40000));
        assert_eq!(parsed[0].remote, Endpoint::v4(31, 13, 79, 251, 443));
        assert_eq!(parsed[0].state, SocketStateCode::Established);
        assert_eq!(parsed[1].uid, 10456);
        assert_eq!(parsed[1].state, SocketStateCode::SynSent);
    }

    #[test]
    fn render_and_parse_tcp6_roundtrips() {
        let table = table_with_entries();
        let file = render_proc_net(&table, Protocol::Tcp6);
        let parsed = parse_proc_net(&file);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].uid, 10789);
        assert_eq!(parsed[0].local.port, 40002);
        assert_eq!(parsed[0].local.addr, "fe80::2".parse::<IpAddr>().unwrap());
        assert_eq!(parsed[0].remote.addr, "2a03:2880:f117::25".parse::<IpAddr>().unwrap());
    }

    #[test]
    fn udp_file_contains_only_udp_entries() {
        let table = table_with_entries();
        let file = render_proc_net(&table, Protocol::Udp);
        let parsed = parse_proc_net(&file);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].remote.port, 53);
        assert!(parse_proc_net(&render_proc_net(&table, Protocol::Udp6)).is_empty());
    }

    #[test]
    fn malformed_lines_are_skipped() {
        let file = ProcFile {
            protocol: Protocol::Tcp,
            content: "header\n garbage line\n  0: ZZZ:1 0200000A:0050 01 0:0 0:0 0 100 0 5\n"
                .into(),
        };
        assert!(parse_proc_net(&file).is_empty());
    }

    #[test]
    fn empty_table_renders_header_only() {
        let table = ConnectionTable::new();
        let file = render_proc_net(&table, Protocol::Tcp);
        assert_eq!(file.content.lines().count(), 1);
        assert!(parse_proc_net(&file).is_empty());
    }
}
