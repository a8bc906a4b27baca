//! Connection states for MopEye's user-space TCP stack.
//!
//! MopEye is always the *passive* end of the internal connection: the app
//! initiates with a SYN, MopEye answers with a SYN/ACK — but only after the
//! external socket connection to the real server has been established, so
//! that the app's handshake time reflects the real path (§2.3). The state
//! set is therefore the server-side subset of RFC 793 plus an explicit
//! "waiting for the external connect" state.

/// The state of one internal (app ↔ MopEye) TCP connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TcpState {
    /// No connection yet; the next segment we expect is a SYN.
    Listen,
    /// A SYN arrived and the external socket connect is in flight; the
    /// SYN/ACK to the app is deferred until the external connect completes.
    SynReceivedPendingExternal,
    /// The SYN/ACK has been sent; waiting for the app's final ACK.
    SynAckSent,
    /// The three-way handshake is complete; data flows both ways.
    Established,
    /// The app sent FIN (half close); we have ACKed it and relay a half-close
    /// to the external socket. Data from the server may still be forwarded.
    CloseWait,
    /// We sent our FIN after the server side finished; waiting for the app's
    /// last ACK.
    LastAck,
    /// We initiated the close towards the app (server closed first); waiting
    /// for the app's FIN/ACK.
    FinWait,
    /// Both sides have closed; the connection lingers briefly for stray
    /// segments before removal.
    TimeWait,
    /// The connection was aborted (RST in either direction).
    Reset,
    /// The connection has been fully torn down and can be removed.
    Closed,
}

impl TcpState {
    /// Returns true if application data from the app may be relayed outward
    /// in this state.
    pub(crate) fn accepts_app_data(self) -> bool {
        matches!(self, TcpState::Established | TcpState::FinWait)
    }

    /// Returns true if data from the server may still be forwarded to the app.
    pub(crate) fn accepts_server_data(self) -> bool {
        matches!(self, TcpState::Established | TcpState::CloseWait)
    }

    /// Returns true if the connection is over and its client object can be
    /// dropped from the registry.
    pub fn is_terminal(self) -> bool {
        matches!(self, TcpState::Closed | TcpState::Reset | TcpState::TimeWait)
    }

    /// Returns true if the handshake (internal and external) is still in
    /// progress.
    pub(crate) fn is_handshaking(self) -> bool {
        matches!(
            self,
            TcpState::Listen | TcpState::SynReceivedPendingExternal | TcpState::SynAckSent
        )
    }

    /// A short label for logs and debugging dumps.
    pub(crate) fn label(self) -> &'static str {
        match self {
            TcpState::Listen => "LISTEN",
            TcpState::SynReceivedPendingExternal => "SYN_RCVD*",
            TcpState::SynAckSent => "SYN_RCVD",
            TcpState::Established => "ESTABLISHED",
            TcpState::CloseWait => "CLOSE_WAIT",
            TcpState::LastAck => "LAST_ACK",
            TcpState::FinWait => "FIN_WAIT",
            TcpState::TimeWait => "TIME_WAIT",
            TcpState::Reset => "RESET",
            TcpState::Closed => "CLOSED",
        }
    }
}

impl std::fmt::Display for TcpState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_acceptance_matrix() {
        assert!(TcpState::Established.accepts_app_data());
        assert!(TcpState::Established.accepts_server_data());
        assert!(TcpState::CloseWait.accepts_server_data());
        assert!(!TcpState::CloseWait.accepts_app_data());
        assert!(TcpState::FinWait.accepts_app_data());
        assert!(!TcpState::FinWait.accepts_server_data());
        assert!(!TcpState::Listen.accepts_app_data());
        assert!(!TcpState::Reset.accepts_server_data());
    }

    #[test]
    fn terminal_and_handshaking_classification() {
        for s in [TcpState::Closed, TcpState::Reset, TcpState::TimeWait] {
            assert!(s.is_terminal(), "{s} should be terminal");
            assert!(!s.is_handshaking());
        }
        for s in [TcpState::Listen, TcpState::SynReceivedPendingExternal, TcpState::SynAckSent] {
            assert!(s.is_handshaking(), "{s} should be handshaking");
            assert!(!s.is_terminal());
        }
        assert!(!TcpState::Established.is_terminal());
        assert!(!TcpState::Established.is_handshaking());
    }

    #[test]
    fn labels_are_unique() {
        let all = [
            TcpState::Listen,
            TcpState::SynReceivedPendingExternal,
            TcpState::SynAckSent,
            TcpState::Established,
            TcpState::CloseWait,
            TcpState::LastAck,
            TcpState::FinWait,
            TcpState::TimeWait,
            TcpState::Reset,
            TcpState::Closed,
        ];
        let mut labels: Vec<_> = all.iter().map(|s| s.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), all.len());
    }
}
