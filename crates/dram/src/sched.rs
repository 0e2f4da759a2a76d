//! Scheduling engines: pluggable command-selection policies for the
//! memory controller.
//!
//! The controller picks the next DRAM command in two passes (DESIGN.md
//! §3.5): pass 1 chooses one *representative* request per (rank, bank)
//! pair; pass 2 picks the globally best representative. Both passes
//! delegate their ordering decisions to a [`Scheduler`] engine, so the
//! policy is a swappable stage rather than a hard-coded branch:
//!
//! * [`FrFcfs`] — the paper's Table 1 policy: row hits first, then
//!   oldest-first. Produces the §5.1 inter-thread starvation.
//! * [`Fcfs`] — strict arrival order per bank; the ablation baseline.
//! * [`FrFcfsCap`] — FR-FCFS with a starvation cap: after `cap`
//!   row-hit bypasses of the oldest pending request, the engine
//!   promotes that request ahead of younger hits (a simplified
//!   FR-FCFS+Cap in the spirit of batch schedulers such as PAR-BS).
//! * [`BankRr`] — a bank-round-robin batch scheduler: serves up to
//!   `batch` column commands from one bank, then rotates a cursor to
//!   the next bank with pending work.
//!
//! Engines are deliberately *decision-only*: they order candidates and
//! report what they did ([`SchedFeedback`]); the controller owns all
//! clocks, stats, energy and event emission. Determinism contract: a
//! scheduler's choice may depend only on the candidate list and its own
//! (deterministically updated) state — never on wall-clock time or
//! hashing.

use crate::command::DramCommand;
use crate::timing::Cycles;

/// Scheduling policy selector (FR-FCFS is the paper's; the others are
/// ablation baselines). This is the plain-data configuration value;
/// [`SchedPolicy::engine`] builds the corresponding [`Scheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// First-ready, first-come-first-served: row hits first.
    FrFcfs,
    /// Strict arrival order per bank.
    Fcfs,
    /// FR-FCFS with a starvation cap.
    FrFcfsCap {
        /// Row-hit bypasses tolerated before the oldest pending
        /// request is promoted ahead of younger hits.
        cap: u32,
    },
    /// Bank-round-robin batch scheduling.
    BankRr {
        /// Column commands served from one bank before the round-robin
        /// cursor advances to the next bank.
        batch: u32,
    },
}

impl SchedPolicy {
    /// Default starvation cap for [`SchedPolicy::FrFcfsCap`].
    pub const DEFAULT_CAP: u32 = 4;
    /// Default batch size for [`SchedPolicy::BankRr`].
    pub const DEFAULT_BATCH: u32 = 4;

    /// Parses a policy name as accepted by the `--sched` flag:
    /// `fr-fcfs`, `fcfs`, `fr-fcfs-cap[:N]`, `bank-rr[:N]`
    /// (`frfcfs`/`frfcfs-cap` spellings are accepted too).
    pub fn parse(s: &str) -> Option<SchedPolicy> {
        let (name, param) = match s.split_once(':') {
            Some((n, p)) => (n, Some(p)),
            None => (s, None),
        };
        let param_u32 = |default: u32| match param {
            None => Some(default),
            Some(p) => p.parse::<u32>().ok().filter(|&v| v > 0),
        };
        match name {
            "fr-fcfs" | "frfcfs" => param.is_none().then_some(SchedPolicy::FrFcfs),
            "fcfs" => param.is_none().then_some(SchedPolicy::Fcfs),
            "fr-fcfs-cap" | "frfcfs-cap" => {
                param_u32(Self::DEFAULT_CAP).map(|cap| SchedPolicy::FrFcfsCap { cap })
            }
            "bank-rr" | "bankrr" => {
                param_u32(Self::DEFAULT_BATCH).map(|batch| SchedPolicy::BankRr { batch })
            }
            _ => None,
        }
    }

    /// Canonical label, stable across runs (used in run ids and the
    /// machine description line).
    pub fn label(&self) -> String {
        match self {
            SchedPolicy::FrFcfs => "fr-fcfs".to_string(),
            SchedPolicy::Fcfs => "fcfs".to_string(),
            SchedPolicy::FrFcfsCap { cap } => format!("fr-fcfs-cap{cap}"),
            SchedPolicy::BankRr { batch } => format!("bank-rr{batch}"),
        }
    }

    /// Builds the scheduling engine for a channel with `ranks` ranks of
    /// `banks` banks each.
    pub fn engine(&self, ranks: usize, banks: usize) -> Box<dyn Scheduler> {
        match *self {
            SchedPolicy::FrFcfs => Box::new(FrFcfs),
            SchedPolicy::Fcfs => Box::new(Fcfs),
            SchedPolicy::FrFcfsCap { cap } => Box::new(FrFcfsCap::new(cap)),
            SchedPolicy::BankRr { batch } => Box::new(BankRr::new(batch, ranks, banks)),
        }
    }
}

/// The per-request view pass 1 orders by: whether the request's next
/// column command would hit the open row, and its arrival sequence
/// number (smaller = older).
#[derive(Debug, Clone, Copy)]
pub struct QueueView {
    /// Whether the request hits the currently open row of its bank.
    pub is_hit: bool,
    /// Arrival sequence number within the controller.
    pub seq: u64,
}

/// A per-(rank, bank) representative request with its next command and
/// the earliest cycle that command could legally issue.
#[derive(Debug, Clone, Copy)]
pub struct Candidate {
    /// Index of the represented request in its queue.
    pub queue_idx: usize,
    /// Rank the command targets.
    pub rank: usize,
    /// Bank the command targets.
    pub bank: usize,
    /// The next command on the request's behalf (ACT/PRE/column).
    pub cmd: DramCommand,
    /// Earliest legal issue cycle (timing, command bus, data bus).
    pub ready: Cycles,
    /// Whether the request hits the currently open row.
    pub is_hit: bool,
    /// Arrival sequence number.
    pub seq: u64,
}

/// A retired request, reported to the engine after its column command
/// issued.
#[derive(Debug, Clone, Copy)]
pub struct Retired {
    /// Arrival sequence number of the serviced request.
    pub seq: u64,
    /// Whether it was serviced as a row hit.
    pub is_hit: bool,
    /// Flat (rank, bank) slot index: `rank * banks + bank`.
    pub slot: usize,
    /// Oldest arrival sequence number still pending in the same queue
    /// at the moment of service (the serviced request included).
    pub oldest_seq: u64,
}

/// What an engine did at a retire, for the controller to fold into
/// stats and telemetry. Engines that take no fairness decisions (the
/// default [`FrFcfs`], and [`Fcfs`]) always report
/// [`SchedFeedback::NONE`], which keeps the default stats schema — and
/// therefore the pinned figure JSON — unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedFeedback {
    /// A younger row hit was serviced while an older request waited.
    pub hit_bypass: bool,
    /// The starvation cap forced the oldest request to be serviced.
    pub promoted: bool,
    /// The round-robin cursor rotated to the next bank.
    pub rotated: bool,
}

impl SchedFeedback {
    /// No decision taken.
    pub const NONE: SchedFeedback = SchedFeedback {
        hit_bypass: false,
        promoted: false,
        rotated: false,
    };
}

/// A command-selection engine. See the module docs for the contract;
/// `prefers` must be a strict ordering criterion (irreflexive), and
/// `select` must be deterministic in `cands` and engine state.
pub trait Scheduler: std::fmt::Debug {
    /// Pass 1: whether request `a` should represent its bank over `b`.
    fn prefers(&self, a: QueueView, b: QueueView) -> bool;

    /// Pass 2: index into `cands` of the command to issue next.
    ///
    /// # Panics
    ///
    /// Implementations may panic when `cands` is empty; the controller
    /// never calls `select` with an empty list.
    fn select(&self, cands: &[Candidate]) -> usize;

    /// Reports a serviced request so stateful engines can update their
    /// fairness bookkeeping. Stateless engines use the default no-op.
    fn on_retire(&mut self, retired: Retired) -> SchedFeedback {
        let _ = retired;
        SchedFeedback::NONE
    }
}

/// Picks the index of the minimum candidate by `(ready, !is_hit, seq)`
/// — the classic FR-FCFS global ordering. `seq` is unique per queue,
/// so the minimum is unambiguous.
fn select_first_ready(cands: &[Candidate]) -> usize {
    cands
        .iter()
        .enumerate()
        .min_by_key(|(_, c)| (c.ready, !c.is_hit, c.seq))
        .map(|(i, _)| i)
        // gsdram-lint: allow(D4) the controller never schedules an empty candidate list
        .expect("select on empty candidate list")
}

/// Picks the index of the oldest candidate (minimum `seq`).
fn select_oldest(cands: &[Candidate]) -> usize {
    cands
        .iter()
        .enumerate()
        .min_by_key(|(_, c)| c.seq)
        .map(|(i, _)| i)
        // gsdram-lint: allow(D4) the controller never schedules an empty candidate list
        .expect("select on empty candidate list")
}

/// First-ready FCFS: row hits beat non-hits, ties by age (Table 1).
#[derive(Debug, Clone, Copy, Default)]
pub struct FrFcfs;

impl Scheduler for FrFcfs {
    fn prefers(&self, a: QueueView, b: QueueView) -> bool {
        (a.is_hit && !b.is_hit) || (a.is_hit == b.is_hit && a.seq < b.seq)
    }

    fn select(&self, cands: &[Candidate]) -> usize {
        select_first_ready(cands)
    }
}

/// Strict arrival order per bank; banks still interleave by readiness.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fcfs;

impl Scheduler for Fcfs {
    fn prefers(&self, a: QueueView, b: QueueView) -> bool {
        a.seq < b.seq
    }

    fn select(&self, cands: &[Candidate]) -> usize {
        select_first_ready(cands)
    }
}

/// FR-FCFS with a starvation cap: behaves exactly like [`FrFcfs`]
/// until `cap` row hits have bypassed the oldest pending request;
/// it then switches to oldest-first (both passes) until that request
/// is serviced, and resets.
#[derive(Debug, Clone, Copy)]
pub struct FrFcfsCap {
    cap: u32,
    bypasses: u32,
}

impl FrFcfsCap {
    /// An engine promoting the oldest request after `cap` bypasses.
    pub fn new(cap: u32) -> Self {
        FrFcfsCap { cap, bypasses: 0 }
    }

    fn capped(&self) -> bool {
        self.bypasses >= self.cap
    }
}

impl Scheduler for FrFcfsCap {
    fn prefers(&self, a: QueueView, b: QueueView) -> bool {
        if self.capped() {
            a.seq < b.seq
        } else {
            FrFcfs.prefers(a, b)
        }
    }

    fn select(&self, cands: &[Candidate]) -> usize {
        if self.capped() {
            select_oldest(cands)
        } else {
            select_first_ready(cands)
        }
    }

    fn on_retire(&mut self, retired: Retired) -> SchedFeedback {
        let mut fb = SchedFeedback::NONE;
        if retired.seq == retired.oldest_seq {
            fb.promoted = self.capped();
            self.bypasses = 0;
        } else if retired.is_hit {
            self.bypasses += 1;
            fb.hit_bypass = true;
        }
        fb
    }
}

/// Bank-round-robin batch scheduler: a cursor walks the (rank, bank)
/// slots; among equally ready candidates, the one closest past the
/// cursor wins, and after `batch` consecutive services from one slot
/// the cursor rotates to the next slot.
#[derive(Debug, Clone, Copy)]
pub struct BankRr {
    batch: u32,
    banks: usize,
    slots: usize,
    cursor: usize,
    in_batch: u32,
}

impl BankRr {
    /// An engine for `ranks` ranks of `banks` banks, rotating after
    /// `batch` consecutive services from one bank.
    pub fn new(batch: u32, ranks: usize, banks: usize) -> Self {
        BankRr {
            batch: batch.max(1),
            banks,
            slots: (ranks * banks).max(1),
            cursor: 0,
            in_batch: 0,
        }
    }

    fn slot(&self, rank: usize, bank: usize) -> usize {
        rank * self.banks + bank
    }

    /// Cyclic distance from the cursor (0 = the cursor's own slot).
    fn distance(&self, slot: usize) -> usize {
        (slot + self.slots - self.cursor) % self.slots
    }
}

impl Scheduler for BankRr {
    fn prefers(&self, a: QueueView, b: QueueView) -> bool {
        // Within a bank the batch is served oldest-first, so a bank
        // cannot starve its own old requests behind younger hits.
        a.seq < b.seq
    }

    fn select(&self, cands: &[Candidate]) -> usize {
        cands
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| (c.ready, self.distance(self.slot(c.rank, c.bank)), c.seq))
            .map(|(i, _)| i)
            // gsdram-lint: allow(D4) the controller never schedules an empty candidate list
            .expect("select on empty candidate list")
    }

    fn on_retire(&mut self, retired: Retired) -> SchedFeedback {
        if retired.slot == self.cursor {
            self.in_batch += 1;
        } else {
            // The scheduler moved on (readiness forced it, or the
            // cursor's bank had nothing): restart the batch there.
            self.cursor = retired.slot % self.slots;
            self.in_batch = 1;
        }
        let mut fb = SchedFeedback::NONE;
        if self.in_batch >= self.batch {
            self.cursor = (self.cursor + 1) % self.slots;
            self.in_batch = 0;
            fb.rotated = true;
        }
        fb
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(
        queue_idx: usize,
        rank: usize,
        bank: usize,
        ready: Cycles,
        is_hit: bool,
        seq: u64,
    ) -> Candidate {
        Candidate {
            queue_idx,
            rank,
            bank,
            cmd: DramCommand::Precharge { bank },
            ready,
            is_hit,
            seq,
        }
    }

    fn view(is_hit: bool, seq: u64) -> QueueView {
        QueueView { is_hit, seq }
    }

    #[test]
    fn policy_labels_round_trip_through_parse() {
        for p in [
            SchedPolicy::FrFcfs,
            SchedPolicy::Fcfs,
            SchedPolicy::FrFcfsCap { cap: 4 },
            SchedPolicy::FrFcfsCap { cap: 9 },
            SchedPolicy::BankRr { batch: 4 },
            SchedPolicy::BankRr { batch: 2 },
        ] {
            let label = p.label();
            // Labels are human-facing; the parse spelling inserts `:`
            // before the numeric parameter.
            let spelling = match p {
                SchedPolicy::FrFcfsCap { cap } => format!("fr-fcfs-cap:{cap}"),
                SchedPolicy::BankRr { batch } => format!("bank-rr:{batch}"),
                _ => label.clone(),
            };
            assert_eq!(SchedPolicy::parse(&spelling), Some(p), "{label}");
        }
        assert_eq!(
            SchedPolicy::parse("fr-fcfs-cap"),
            Some(SchedPolicy::FrFcfsCap {
                cap: SchedPolicy::DEFAULT_CAP
            })
        );
        assert_eq!(
            SchedPolicy::parse("bank-rr"),
            Some(SchedPolicy::BankRr {
                batch: SchedPolicy::DEFAULT_BATCH
            })
        );
        assert_eq!(SchedPolicy::parse("nonsense"), None);
        assert_eq!(SchedPolicy::parse("fr-fcfs-cap:0"), None);
        assert_eq!(SchedPolicy::parse("fcfs:3"), None);
    }

    #[test]
    fn frfcfs_orders_hits_then_age() {
        let s = FrFcfs;
        assert!(s.prefers(view(true, 9), view(false, 1)));
        assert!(!s.prefers(view(false, 1), view(true, 9)));
        assert!(s.prefers(view(true, 1), view(true, 2)));
        assert!(s.prefers(view(false, 1), view(false, 2)));
        // Global: readiness first, then hit, then age.
        let cands = [
            cand(0, 0, 0, 10, false, 0),
            cand(1, 0, 1, 5, false, 3),
            cand(2, 0, 2, 5, true, 4),
        ];
        assert_eq!(s.select(&cands), 2);
    }

    #[test]
    fn fcfs_ignores_hits() {
        let s = Fcfs;
        assert!(!s.prefers(view(true, 9), view(false, 1)));
        assert!(s.prefers(view(false, 1), view(true, 9)));
    }

    #[test]
    fn cap_engine_switches_to_oldest_first_and_reports() {
        let mut s = FrFcfsCap::new(2);
        // Two row-hit bypasses of the oldest request (seq 1)...
        for seq in [5, 6] {
            let fb = s.on_retire(Retired {
                seq,
                is_hit: true,
                slot: 0,
                oldest_seq: 1,
            });
            assert!(fb.hit_bypass && !fb.promoted);
        }
        // ...flip both passes to oldest-first.
        assert!(s.capped());
        assert!(s.prefers(view(false, 1), view(true, 9)));
        let cands = [cand(0, 0, 0, 5, true, 9), cand(1, 0, 1, 5, false, 1)];
        assert_eq!(s.select(&cands), 1);
        // Serving the oldest is the promotion, and resets the count.
        let fb = s.on_retire(Retired {
            seq: 1,
            is_hit: false,
            slot: 1,
            oldest_seq: 1,
        });
        assert!(fb.promoted && !fb.hit_bypass);
        assert!(!s.capped());
        // Non-hit bypasses neither count nor promote.
        let fb = s.on_retire(Retired {
            seq: 7,
            is_hit: false,
            slot: 0,
            oldest_seq: 2,
        });
        assert_eq!(fb, SchedFeedback::NONE);
    }

    #[test]
    fn bank_rr_rotates_after_a_full_batch() {
        let mut s = BankRr::new(2, 1, 8);
        // Equal readiness: the cursor's bank (0) wins over bank 1.
        let cands = [cand(0, 0, 1, 5, true, 1), cand(1, 0, 0, 5, false, 2)];
        assert_eq!(s.select(&cands), 1);
        assert_eq!(
            s.on_retire(Retired {
                seq: 2,
                is_hit: false,
                slot: 0,
                oldest_seq: 1
            }),
            SchedFeedback::NONE
        );
        // Second service from bank 0 completes the batch: rotate.
        let fb = s.on_retire(Retired {
            seq: 3,
            is_hit: true,
            slot: 0,
            oldest_seq: 1,
        });
        assert!(fb.rotated);
        assert_eq!(s.select(&cands), 0, "cursor now favours bank 1");
        // An off-cursor service restarts the batch at that slot.
        let fb = s.on_retire(Retired {
            seq: 4,
            is_hit: true,
            slot: 5,
            oldest_seq: 4,
        });
        assert_eq!(fb, SchedFeedback::NONE);
        assert_eq!(s.cursor, 5);
    }

    #[test]
    fn engines_build_from_policy() {
        for p in [
            SchedPolicy::FrFcfs,
            SchedPolicy::Fcfs,
            SchedPolicy::FrFcfsCap { cap: 1 },
            SchedPolicy::BankRr { batch: 1 },
        ] {
            let e = p.engine(1, 8);
            let cands = [cand(0, 0, 0, 0, false, 0)];
            assert_eq!(e.select(&cands), 0, "{}", p.label());
        }
    }
}
