/// Counters describing a simulation run.
///
/// # Example
///
/// ```
/// use distclass_net::NetMetrics;
///
/// let m = NetMetrics::default();
/// assert_eq!(m.messages_sent, 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetMetrics {
    /// Messages handed to the engine by protocols.
    pub messages_sent: u64,
    /// Messages delivered to a live recipient.
    pub messages_delivered: u64,
    /// Messages dropped because the recipient had crashed.
    pub messages_dropped: u64,
    /// Protocol tick callbacks executed.
    pub ticks: u64,
    /// Rounds completed (round engine only).
    pub rounds: u64,
    /// Nodes crashed so far.
    pub crashes: u64,
    /// Wire bytes of all sent messages. Zero unless the engine was given a
    /// message sizer (see `RoundEngine::with_message_sizer`); the sizer
    /// prices each message as its encoded wire size, so simulations report
    /// the byte costs a deployment would pay.
    pub bytes_sent: u64,
    /// Wire bytes of messages delivered to a live recipient.
    pub bytes_delivered: u64,
}

impl NetMetrics {
    /// Messages still unaccounted for (sent but neither delivered nor
    /// dropped). Non-zero only while a round/run is in progress.
    ///
    /// Saturates at zero: the fields are public, so a hand-built or
    /// summed value can claim more deliveries than sends, and a
    /// diagnostic counter must never be the thing that panics.
    pub fn in_flight(&self) -> u64 {
        self.messages_sent
            .saturating_sub(self.messages_delivered)
            .saturating_sub(self.messages_dropped)
    }
}

impl std::fmt::Display for NetMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sent={} delivered={} dropped={} ticks={} rounds={} crashes={} \
             bytes_sent={} bytes_delivered={}",
            self.messages_sent,
            self.messages_delivered,
            self.messages_dropped,
            self.ticks,
            self.rounds,
            self.crashes,
            self.bytes_sent,
            self.bytes_delivered
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_flight_accounting() {
        let m = NetMetrics {
            messages_sent: 10,
            messages_delivered: 7,
            messages_dropped: 1,
            ..NetMetrics::default()
        };
        assert_eq!(m.in_flight(), 2);
    }

    #[test]
    fn in_flight_saturates_when_accounting_drifts() {
        // More delivered than sent must read as zero, not underflow-panic.
        let m = NetMetrics {
            messages_sent: 3,
            messages_delivered: 5,
            messages_dropped: 1,
            ..NetMetrics::default()
        };
        assert_eq!(m.in_flight(), 0);
    }

    #[test]
    fn display_mentions_counts() {
        let m = NetMetrics::default();
        assert!(m.to_string().contains("sent=0"));
    }
}
