//! FR-FCFS memory controller over the bank state machines.

use crate::bank::{Bank, BankState, Command};
use crate::config::DramConfig;
use std::collections::VecDeque;

/// One memory request (a 64-byte burst).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Request {
    /// Byte address.
    pub(crate) addr: u64,
    /// True for a write, false for a read.
    pub(crate) is_write: bool,
    /// Cycle at which the request enters the controller.
    pub(crate) arrival: u64,
}

impl Request {
    /// A read arriving at cycle 0.
    pub(crate) fn read(addr: u64) -> Request {
        Request { addr, is_write: false, arrival: 0 }
    }

    /// A write arriving at cycle 0.
    pub(crate) fn write(addr: u64) -> Request {
        Request { addr, is_write: true, arrival: 0 }
    }
}

/// Decoded address: which bank and row a request targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Decoded {
    /// Flat bank index (bank group × banks-per-group + bank).
    pub(crate) bank: usize,
    /// Row within the bank.
    pub(crate) row: usize,
    /// Column (burst index within the row).
    pub(crate) column: usize,
}

/// Aggregate results of running a request trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TraceResult {
    /// Cycle at which the last request's data completed.
    pub(crate) cycles: u64,
    /// Total DRAM energy in picojoules (commands + refresh + background).
    pub(crate) energy_pj: f64,
    /// Row-buffer hits.
    pub(crate) row_hits: u64,
    /// Row-buffer misses (bank closed).
    pub(crate) row_misses: u64,
    /// Row-buffer conflicts (wrong row open).
    pub(crate) row_conflicts: u64,
    /// Requests served.
    pub(crate) requests: u64,
    /// Mean request latency (arrival → data) in cycles.
    pub(crate) avg_latency: f64,
}

impl TraceResult {
    /// Achieved bandwidth in bytes per cycle.
    pub(crate) fn bytes_per_cycle(&self, cfg: &DramConfig) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            (self.requests as f64 * cfg.burst_bytes() as f64) / self.cycles as f64
        }
    }
}

#[derive(Debug, Clone)]
struct Pending {
    req: Request,
    decoded: Decoded,
    /// Row-buffer outcome recorded at the request's first command.
    classified: bool,
}

/// A single-channel FR-FCFS controller (DRAMsim3-style): row-buffer-hit
/// column commands are prioritized over older row-miss requests, subject to
/// one command per cycle and a shared data bus.
#[derive(Debug, Clone)]
pub(crate) struct Controller {
    cfg: DramConfig,
    banks: Vec<Bank>,
    /// Cycle at which the shared data bus frees.
    bus_free: u64,
    /// Next refresh epoch.
    next_refresh: u64,
    energy_pj: f64,
    queue_capacity: usize,
}

impl Controller {
    /// Creates a controller with a 32-entry request window.
    pub(crate) fn new(cfg: DramConfig) -> Controller {
        let banks = (0..cfg.banks()).map(|_| Bank::new()).collect();
        let next_refresh = cfg.t_refi;
        Controller { cfg, banks, bus_free: 0, next_refresh, energy_pj: 0.0, queue_capacity: 32 }
    }

    /// The configuration in use.
    pub(crate) fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Maps a byte address to (bank, row, column) using the streaming-
    /// friendly `row : bank : column : offset` layout: consecutive 64-byte
    /// bursts walk a 2 KB row, then move to the next bank (bank
    /// interleaving), so sequential streams pipeline ACTs across banks.
    pub(crate) fn decode(&self, addr: u64) -> Decoded {
        let burst = self.cfg.burst_bytes() as u64;
        let cols = self.cfg.bursts_per_row() as u64;
        let banks = self.cfg.banks() as u64;
        let a = addr / burst;
        let column = (a % cols) as usize;
        let bank = ((a / cols) % banks) as usize;
        let row = ((a / cols / banks) % self.cfg.rows as u64) as usize;
        Decoded { bank, row, column }
    }

    /// Runs a trace to completion and resets nothing: the controller keeps
    /// its bank state, so consecutive traces model phase sequences.
    pub(crate) fn run_trace(&mut self, requests: &[Request]) -> TraceResult {
        let mut pending: VecDeque<Pending> = VecDeque::new();
        let mut next_req = 0usize;
        let mut now = 0u64;
        let mut done = 0u64;
        let mut latency_sum = 0u64;
        let mut last_completion = 0u64;
        let energy_before = self.energy_pj;
        let (mut h0, mut m0, mut c0) = self.bank_totals();

        while done < requests.len() as u64 {
            // Admit arrived requests into the window.
            while next_req < requests.len()
                && pending.len() < self.queue_capacity
                && requests[next_req].arrival <= now
            {
                let req = requests[next_req];
                let decoded = self.decode(req.addr);
                pending.push_back(Pending { req, decoded, classified: false });
                next_req += 1;
            }

            // Refresh epoch: all banks stall for tRFC.
            if now >= self.next_refresh {
                for b in &mut self.banks {
                    if matches!(b.state(), BankState::Open(_))
                        && b.can_issue(Command::Precharge, now)
                    {
                        b.issue(Command::Precharge, 0, now, &self.cfg);
                    }
                }
                // Model: refresh blocks the whole rank once banks close.
                let t_rfc = self.cfg.t_rfc;
                now += t_rfc;
                self.energy_pj += self.cfg.refresh_pj;
                self.next_refresh += self.cfg.t_refi;
                continue;
            }

            // FR-FCFS: first pass — oldest request whose next command is a
            // row-hit column command ready now; second pass — oldest
            // request with any ready command.
            let pick = self.pick_fr_fcfs(&pending, now);

            match pick {
                Some(qi) => {
                    let p = &mut pending[qi];
                    let cmd = Controller::next_command(&self.banks[p.decoded.bank], p);
                    let bank = p.decoded.bank;
                    if !p.classified {
                        // The first command this request needs records its
                        // row-buffer outcome.
                        self.banks[bank].classify_access(p.decoded.row);
                        p.classified = true;
                    }
                    self.banks[bank].issue(cmd, p.decoded.row, now, &self.cfg);
                    match cmd {
                        Command::Activate => self.energy_pj += self.cfg.act_pre_pj,
                        Command::Read => self.energy_pj += self.cfg.read_pj,
                        Command::Write => self.energy_pj += self.cfg.write_pj,
                        Command::Precharge => {} // folded into act_pre_pj
                    }
                    if matches!(cmd, Command::Read | Command::Write) {
                        let data_latency = if p.req.is_write {
                            self.cfg.cwl + self.cfg.burst_cycles()
                        } else {
                            self.cfg.cl + self.cfg.burst_cycles()
                        };
                        let completion = now + data_latency;
                        self.bus_free = completion;
                        latency_sum += completion - p.req.arrival;
                        last_completion = last_completion.max(completion);
                        done += 1;
                        pending.remove(qi);
                    }
                    now += 1; // one command per cycle on the command bus
                }
                None => {
                    // Advance to the earliest time anything becomes ready.
                    let mut next = u64::MAX;
                    for p in &pending {
                        let cmd = Controller::next_command(&self.banks[p.decoded.bank], p);
                        let t = self.banks[p.decoded.bank].ready_at(cmd);
                        let t = if matches!(cmd, Command::Read | Command::Write) {
                            t.max(self.bus_free.saturating_sub(self.cfg.cl))
                        } else {
                            t
                        };
                        next = next.min(t);
                    }
                    if next_req < requests.len() {
                        next = next.min(requests[next_req].arrival);
                    }
                    next = next.min(self.next_refresh);
                    now = next.max(now + 1);
                }
            }
        }

        // Background energy for the elapsed window.
        let elapsed_ns = self.cfg.cycles_to_ns(last_completion);
        self.energy_pj += self.cfg.background_mw * 1e-3 * elapsed_ns; // mW × ns = pJ

        let (h1, m1, c1) = self.bank_totals();
        h0 = h1 - h0;
        m0 = m1 - m0;
        c0 = c1 - c0;
        TraceResult {
            cycles: last_completion,
            energy_pj: self.energy_pj - energy_before,
            row_hits: h0,
            row_misses: m0,
            row_conflicts: c0,
            requests: requests.len() as u64,
            avg_latency: if requests.is_empty() {
                0.0
            } else {
                latency_sum as f64 / requests.len() as f64
            },
        }
    }

    fn bank_totals(&self) -> (u64, u64, u64) {
        let mut t = (0, 0, 0);
        for b in &self.banks {
            let s = b.stats();
            t.0 += s.0;
            t.1 += s.1;
            t.2 += s.2;
        }
        t
    }

    /// The next command a request needs, derived from current bank state:
    /// open at the right row → column command; closed → ACT; open at a
    /// different row → PRE.
    fn next_command(bank: &Bank, p: &Pending) -> Command {
        let column = if p.req.is_write { Command::Write } else { Command::Read };
        match bank.state() {
            BankState::Open(r) if r == p.decoded.row => column,
            BankState::Closed => Command::Activate,
            BankState::Open(_) => Command::Precharge,
        }
    }

    /// FR-FCFS arbitration. Returns the queue index to issue from.
    fn pick_fr_fcfs(&self, pending: &VecDeque<Pending>, now: u64) -> Option<usize> {
        let bus_ok = |cmd: Command| match cmd {
            Command::Read | Command::Write => now + self.cfg.cl >= self.bus_free,
            _ => true,
        };
        // Pass 1: ready column commands (row hits).
        for (qi, p) in pending.iter().enumerate() {
            let cmd = Controller::next_command(&self.banks[p.decoded.bank], p);
            if matches!(cmd, Command::Read | Command::Write)
                && self.banks[p.decoded.bank].can_issue(cmd, now)
                && bus_ok(cmd)
            {
                return Some(qi);
            }
        }
        // Pass 2: oldest request with any ready command. Row commands (PRE/
        // ACT) only issue for the *oldest* request targeting their bank, so
        // a younger request never closes a row an older one is about to use.
        let mut seen_banks = [false; 64];
        for (qi, p) in pending.iter().enumerate() {
            let bank_id = p.decoded.bank;
            if seen_banks[bank_id % 64] {
                continue;
            }
            seen_banks[bank_id % 64] = true;
            let cmd = Controller::next_command(&self.banks[bank_id], p);
            if self.banks[bank_id].can_issue(cmd, now) && bus_ok(cmd) {
                return Some(qi);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ctrl() -> Controller {
        Controller::new(DramConfig::ddr4_2133())
    }

    #[test]
    fn one_row_of_reads_is_one_miss_then_hits() {
        let cfg = DramConfig::ddr4_2133();
        let mut ctrl = Controller::new(cfg.clone());
        // Sequential reads of one row: one ACT, then row hits.
        let reqs: Vec<Request> = (0..8).map(|i| Request::read(i * 64)).collect();
        let result = ctrl.run_trace(&reqs);
        assert_eq!(result.row_hits, 7);
        assert_eq!(result.row_misses, 1);
    }

    proptest! {
        /// The DRAM controller serves any in-range request trace to completion
        /// without protocol violations (Bank::issue panics on violations).
        #[test]
        fn dram_controller_protocol_holds(
            addrs in proptest::collection::vec(0u64..(1 << 28), 1..64),
            writes in proptest::collection::vec(any::<bool>(), 64),
        ) {
            let mut ctrl = Controller::new(DramConfig::ddr4_2133());
            let reqs: Vec<Request> = addrs
                .iter()
                .zip(&writes)
                .map(|(&a, &w)| Request { addr: a & !63, is_write: w, arrival: 0 })
                .collect();
            let r = ctrl.run_trace(&reqs);
            prop_assert_eq!(r.requests, reqs.len() as u64);
            prop_assert!(r.cycles > 0);
            let classified = r.row_hits + r.row_misses + r.row_conflicts;
            prop_assert_eq!(classified, reqs.len() as u64);
        }
    }

    #[test]
    fn decode_walks_columns_then_banks() {
        let c = ctrl();
        let d0 = c.decode(0);
        let d1 = c.decode(64);
        assert_eq!(d0.bank, d1.bank);
        assert_eq!(d0.row, d1.row);
        assert_eq!(d1.column, 1);
        // Next row-worth of bytes moves to the next bank.
        let d32 = c.decode(2048);
        assert_eq!(d32.bank, d0.bank + 1);
        assert_eq!(d32.row, d0.row);
    }

    #[test]
    fn sequential_reads_hit_row_buffer() {
        let mut c = ctrl();
        let reqs: Vec<Request> = (0..32).map(|i| Request::read(i * 64)).collect();
        let r = c.run_trace(&reqs);
        assert_eq!(r.row_misses, 1);
        assert_eq!(r.row_hits, 31);
        assert_eq!(r.row_conflicts, 0);
    }

    #[test]
    fn fr_fcfs_batches_row_hits_out_of_order() {
        let mut c = ctrl();
        // Alternate two rows of the same bank, all queued at once: FR-FCFS
        // reorders so each row is opened once — 1 miss, 1 conflict (the row
        // switch), 6 hits.
        let row_stride = 2048 * 16; // one full bank sweep = next row, same bank
        let reqs: Vec<Request> = (0..8).map(|i| Request::read((i % 2) * row_stride * 2)).collect();
        let r = c.run_trace(&reqs);
        assert_eq!(r.row_hits, 6);
        assert_eq!(r.row_conflicts, 1);
        assert_eq!(r.row_misses, 1);
    }

    #[test]
    fn serialized_row_alternation_conflicts_every_time() {
        let mut c = ctrl();
        // Same alternation, but arrivals spaced beyond tRC: no reordering
        // window, so every access after the first is a row conflict.
        let row_stride = 2048u64 * 16;
        let reqs: Vec<Request> = (0..8)
            .map(|i| Request { addr: (i % 2) * row_stride * 2, is_write: false, arrival: i * 1000 })
            .collect();
        let r = c.run_trace(&reqs);
        assert_eq!(r.row_conflicts, 7);
        assert_eq!(r.row_misses, 1);
    }

    #[test]
    fn sequential_bandwidth_approaches_peak() {
        let mut c = ctrl();
        let reqs: Vec<Request> = (0..2048).map(|i| Request::read(i * 64)).collect();
        let r = c.run_trace(&reqs);
        let eff = r.bytes_per_cycle(c.config()) / 16.0; // peak = 16 B/cycle
        assert!(eff > 0.7, "sequential efficiency {eff}");
    }

    #[test]
    fn random_bandwidth_is_far_below_sequential() {
        let mut seq_c = ctrl();
        let seq: Vec<Request> = (0..512).map(|i| Request::read(i * 64)).collect();
        let seq_r = seq_c.run_trace(&seq);

        let mut rnd_c = ctrl();
        // Pathological stride: same bank, new row every time.
        let stride = 2048u64 * 16 * 2;
        let rnd: Vec<Request> = (0..512).map(|i| Request::read(i * stride)).collect();
        let rnd_r = rnd_c.run_trace(&rnd);
        assert!(
            rnd_r.cycles > seq_r.cycles * 4,
            "row-conflict trace ({}) should be ≫ sequential ({})",
            rnd_r.cycles,
            seq_r.cycles
        );
    }

    #[test]
    fn writes_complete_and_cost_energy() {
        let mut c = ctrl();
        let reqs: Vec<Request> = (0..16).map(|i| Request::write(i * 64)).collect();
        let r = c.run_trace(&reqs);
        assert_eq!(r.requests, 16);
        assert!(r.energy_pj > 0.0);
        assert!(r.cycles > 0);
    }

    #[test]
    fn energy_scales_with_activates() {
        let mut seq_c = ctrl();
        let seq: Vec<Request> = (0..256).map(|i| Request::read(i * 64)).collect();
        let seq_r = seq_c.run_trace(&seq);

        let mut rnd_c = ctrl();
        let stride = 2048u64 * 16 * 2;
        let rnd: Vec<Request> = (0..256).map(|i| Request::read(i * stride)).collect();
        let rnd_r = rnd_c.run_trace(&rnd);
        assert!(
            rnd_r.energy_pj > seq_r.energy_pj * 1.5,
            "row-conflict energy {} should exceed sequential {}",
            rnd_r.energy_pj,
            seq_r.energy_pj
        );
    }

    #[test]
    fn empty_trace_is_trivial() {
        let mut c = ctrl();
        let r = c.run_trace(&[]);
        assert_eq!(r.cycles, 0);
        assert_eq!(r.requests, 0);
    }

    #[test]
    fn latency_includes_queueing() {
        let mut c = ctrl();
        // Two conflicting requests: the second waits for PRE+ACT.
        let stride = 2048u64 * 16 * 2;
        let r = c.run_trace(&[Request::read(0), Request::read(stride)]);
        let cfg = DramConfig::ddr4_2133();
        let min_single = cfg.t_rcd + cfg.cl + cfg.burst_cycles();
        assert!(r.avg_latency > min_single as f64);
    }
}
