//! Per-bank state machine enforcing DDR4 timing constraints.

use crate::config::DramConfig;

/// The DRAM commands a bank accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Command {
    /// Open (activate) a row.
    Activate,
    /// Read one burst from the open row.
    Read,
    /// Write one burst to the open row.
    Write,
    /// Close (precharge) the open row.
    Precharge,
}

/// Row-buffer state of one bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BankState {
    /// No row open (precharged).
    Closed,
    /// Row `row` is open in the row buffer.
    Open(usize),
}

/// One DDR4 bank: open-row tracking plus earliest-issue timestamps for each
/// command class, updated as commands issue.
///
/// Timing enforced: tRCD (ACT→column), tRP (PRE→ACT), tRAS (ACT→PRE),
/// tRC (ACT→ACT), CL/CWL + burst (column→column data bus), tWR (write
/// recovery before PRE).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Bank {
    state: BankState,
    /// Earliest cycle an ACT may issue.
    next_act: u64,
    /// Earliest cycle a column command (RD/WR) may issue.
    next_column: u64,
    /// Earliest cycle a PRE may issue.
    next_pre: u64,
    /// Row-buffer statistics.
    hits: u64,
    misses: u64,
    conflicts: u64,
}

impl Bank {
    /// A closed, immediately-usable bank.
    pub(crate) fn new() -> Bank {
        Bank {
            state: BankState::Closed,
            next_act: 0,
            next_column: 0,
            next_pre: 0,
            hits: 0,
            misses: 0,
            conflicts: 0,
        }
    }

    /// Current row-buffer state.
    pub(crate) fn state(&self) -> BankState {
        self.state
    }

    /// `(row-hits, row-misses, row-conflicts)` classified at access time.
    pub(crate) fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.conflicts)
    }

    /// Earliest cycle at which `cmd` may legally issue.
    pub(crate) fn ready_at(&self, cmd: Command) -> u64 {
        match cmd {
            Command::Activate => self.next_act,
            Command::Read | Command::Write => self.next_column,
            Command::Precharge => self.next_pre,
        }
    }

    /// True if `cmd` may issue at `now`.
    pub(crate) fn can_issue(&self, cmd: Command, now: u64) -> bool {
        if now < self.ready_at(cmd) {
            return false;
        }
        match cmd {
            Command::Activate => self.state == BankState::Closed,
            Command::Read | Command::Write => matches!(self.state, BankState::Open(_)),
            Command::Precharge => matches!(self.state, BankState::Open(_)),
        }
    }

    /// Issues `cmd` at cycle `now`, updating the timing state.
    ///
    /// For `Activate`, `row` selects the row; ignored otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the command violates protocol (wrong state or too early) —
    /// the controller must check [`Bank::can_issue`] first. This hard
    /// failure is what the protocol property tests rely on.
    pub(crate) fn issue(&mut self, cmd: Command, row: usize, now: u64, cfg: &DramConfig) {
        assert!(
            self.can_issue(cmd, now),
            "protocol violation: {cmd:?} at {now}, state {:?}, ready {}",
            self.state,
            self.ready_at(cmd)
        );
        match cmd {
            Command::Activate => {
                self.state = BankState::Open(row);
                self.next_column = now + cfg.t_rcd;
                self.next_pre = now + cfg.t_ras;
                self.next_act = now + cfg.t_rc;
            }
            Command::Read => {
                // Bank is busy for the column-to-column window; data appears
                // CL + burst later (the controller accounts completion).
                self.next_column = now + cfg.t_ccd_l;
                self.next_pre = self.next_pre.max(now + cfg.cl + cfg.burst_cycles());
            }
            Command::Write => {
                self.next_column = now + cfg.t_ccd_l;
                // PRE must wait for write recovery after the data burst.
                self.next_pre = self.next_pre.max(now + cfg.cwl + cfg.burst_cycles() + cfg.t_wr);
            }
            Command::Precharge => {
                self.state = BankState::Closed;
                self.next_act = self.next_act.max(now + cfg.t_rp);
            }
        }
    }

    /// Classifies an access to `row` against the current row buffer and
    /// records the outcome: hit (open, same row), miss (closed), or conflict
    /// (open, different row).
    pub(crate) fn classify_access(&mut self, row: usize) -> RowOutcome {
        match self.state {
            BankState::Open(r) if r == row => {
                self.hits += 1;
                RowOutcome::Hit
            }
            BankState::Closed => {
                self.misses += 1;
                RowOutcome::Miss
            }
            BankState::Open(_) => {
                self.conflicts += 1;
                RowOutcome::Conflict
            }
        }
    }
}

/// Row-buffer outcome of an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RowOutcome {
    /// Same row already open — column command only.
    Hit,
    /// Bank closed — ACT then column.
    Miss,
    /// Different row open — PRE, ACT, column.
    Conflict,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DramConfig {
        DramConfig::ddr4_2133()
    }

    #[test]
    fn activate_then_read_obeys_trcd() {
        let cfg = cfg();
        let mut b = Bank::new();
        b.issue(Command::Activate, 7, 0, &cfg);
        assert!(!b.can_issue(Command::Read, cfg.t_rcd - 1));
        assert!(b.can_issue(Command::Read, cfg.t_rcd));
    }

    #[test]
    fn precharge_waits_for_tras() {
        let cfg = cfg();
        let mut b = Bank::new();
        b.issue(Command::Activate, 1, 0, &cfg);
        assert!(!b.can_issue(Command::Precharge, cfg.t_ras - 1));
        assert!(b.can_issue(Command::Precharge, cfg.t_ras));
    }

    #[test]
    fn act_to_act_obeys_trc_and_trp() {
        let cfg = cfg();
        let mut b = Bank::new();
        b.issue(Command::Activate, 1, 0, &cfg);
        b.issue(Command::Precharge, 0, cfg.t_ras, &cfg);
        // Next ACT: max(tRC, tRAS + tRP).
        let earliest = cfg.t_rc.max(cfg.t_ras + cfg.t_rp);
        assert!(!b.can_issue(Command::Activate, earliest - 1));
        assert!(b.can_issue(Command::Activate, earliest));
    }

    #[test]
    fn cannot_read_closed_bank() {
        let b = Bank::new();
        assert!(!b.can_issue(Command::Read, 1000));
        assert!(b.can_issue(Command::Activate, 0));
    }

    #[test]
    fn write_recovery_delays_precharge() {
        let cfg = cfg();
        let mut b = Bank::new();
        b.issue(Command::Activate, 1, 0, &cfg);
        let wr_at = cfg.t_rcd;
        b.issue(Command::Write, 0, wr_at, &cfg);
        let pre_ready = (wr_at + cfg.cwl + cfg.burst_cycles() + cfg.t_wr).max(cfg.t_ras);
        assert!(!b.can_issue(Command::Precharge, pre_ready - 1));
        assert!(b.can_issue(Command::Precharge, pre_ready));
    }

    #[test]
    fn consecutive_reads_obey_tccd() {
        let cfg = cfg();
        let mut b = Bank::new();
        b.issue(Command::Activate, 1, 0, &cfg);
        b.issue(Command::Read, 0, cfg.t_rcd, &cfg);
        assert!(!b.can_issue(Command::Read, cfg.t_rcd + cfg.t_ccd_l - 1));
        assert!(b.can_issue(Command::Read, cfg.t_rcd + cfg.t_ccd_l));
    }

    #[test]
    #[should_panic(expected = "protocol violation")]
    fn early_command_panics() {
        let cfg = cfg();
        let mut b = Bank::new();
        b.issue(Command::Activate, 1, 0, &cfg);
        b.issue(Command::Read, 0, 1, &cfg); // violates tRCD
    }

    #[test]
    fn access_classification_counts() {
        let cfg = cfg();
        let mut b = Bank::new();
        assert_eq!(b.classify_access(5), RowOutcome::Miss);
        b.issue(Command::Activate, 5, 0, &cfg);
        assert_eq!(b.classify_access(5), RowOutcome::Hit);
        assert_eq!(b.classify_access(9), RowOutcome::Conflict);
        assert_eq!(b.stats(), (1, 1, 1));
    }
}
