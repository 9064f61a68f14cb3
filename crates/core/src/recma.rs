//! Reconfiguration Management (recMA) — Algorithm 3.2.
//!
//! recMA decides *when* a delicate reconfiguration should be requested and
//! leaves the replacement itself to recSA. It triggers `estab(FD[i].part)` in
//! exactly two situations:
//!
//! 1. **majority loss** — the processor no longer trusts a majority of the
//!    current configuration *and* every processor in its `core()` (the
//!    intersection of the participant sets reported by its trusted
//!    participants) reports the same (`noMaj` flags), which prevents
//!    unilateral triggers caused by an inaccurate failure detector;
//! 2. **prediction** — the application's `evalConf()` function requests a
//!    reconfiguration and a majority of the configuration members that the
//!    processor trusts agree (`needReconf` flags).
//!
//! Lemma 3.18 bounds the number of spurious triggerings caused by stale
//! `noMaj`/`needReconf` information to `O(N²·cap)`; experiment E3
//! (`simctl experiments`) measures this.

use std::collections::BTreeSet;

use simnet::stack::Sink;
use simnet::{PeerTable, ProcessId};

use crate::recsa::RecSa;
use crate::types::{same_config, same_set, shared_set, ConfigSet, SharedConfig, SharedSet};

/// The flag pair exchanged by participants (line 19 of Algorithm 3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecMaMsg {
    /// The sender's `noMaj` flag: it cannot see a trusted majority of the
    /// current configuration.
    pub no_maj: bool,
    /// The sender's `needReconf` flag: its prediction function asks for a
    /// reconfiguration.
    pub need_reconf: bool,
}

simnet::wire_struct_codec!(RecMaMsg {
    no_maj,
    need_reconf
});

/// One processor's entry of `noMaj[]` and `needReconf[]`. The two arrays are
/// only ever written together, so they share a record; a processor without
/// one reads as `false`/`false`, which is also what the record defaults to.
#[derive(Debug, Clone, Copy, Default)]
struct Flags {
    no_maj: bool,
    need_reconf: bool,
}

/// The Reconfiguration Management layer of one processor.
#[derive(Debug, Clone)]
pub struct RecMa {
    me: ProcessId,
    /// `noMaj[]` and `needReconf[]` — own flags plus the most recently
    /// received ones, array-indexed by the raw identifier.
    flags: PeerTable<Flags>,
    /// `prevConfig` — the configuration seen in the previous iteration
    /// (the shared allocation; comparison is pointer-first).
    prev_config: Option<SharedConfig>,
    /// Number of times this layer triggered `estab()` (observability).
    triggerings: u64,
}

impl RecMa {
    /// Creates the recMA layer for processor `me`.
    pub fn new(me: ProcessId) -> Self {
        RecMa {
            me,
            flags: PeerTable::new(),
            prev_config: None,
            triggerings: 0,
        }
    }

    /// Number of `estab()` calls issued by this layer so far.
    pub fn triggerings(&self) -> u64 {
        self.triggerings
    }

    /// Own `noMaj` flag (observability).
    pub fn no_majority_flag(&self) -> bool {
        self.flags_of(self.me).no_maj
    }

    /// The flags stored for `k`; `false`/`false` when none are.
    fn flags_of(&self, k: ProcessId) -> Flags {
        self.flags.get(k).copied().unwrap_or_default()
    }

    fn set_flags(&mut self, k: ProcessId, no_maj: bool, need_reconf: bool) {
        self.flags.insert(
            k,
            Flags {
                no_maj,
                need_reconf,
            },
        );
    }

    fn flush_flags(&mut self) {
        for (_, flags) in self.flags.iter_mut() {
            *flags = Flags::default();
        }
    }

    /// `core()` (line 4): the intersection, over the trusted participants, of
    /// the participant sets they report.
    fn core(&self, recsa: &RecSa) -> SharedSet {
        let part = recsa.my_part_shared();
        // `FD[k].part` of each participant, borrowed: the own entry is
        // `part` itself, a peer's is what it last reported.
        let reported = |k: ProcessId| {
            if k == recsa.me() {
                &part
            } else {
                recsa.part_rx_of(k)
            }
        };
        let mut iter = part.iter().copied();
        let Some(first) = iter.next() else {
            return shared_set(BTreeSet::new());
        };
        let first_set = reported(first);
        // The reported sets are shared (interned) values: in the converged
        // steady state they are all the same allocation, so the intersection
        // is only materialized once a genuinely different set shows up —
        // the steady path hands the first reporter's allocation back as-is.
        let mut acc: Option<BTreeSet<ProcessId>> = None;
        for k in iter {
            let other = reported(k);
            if acc.is_none() && same_set(first_set, other) {
                continue;
            }
            let a = acc.get_or_insert_with(|| (**first_set).clone());
            a.retain(|p| other.contains(p));
        }
        match acc {
            Some(materialized) => shared_set(materialized),
            None => first_set.clone(),
        }
    }

    /// One iteration of the `do forever` loop (lines 5–19). `eval_conf` is
    /// the application's prediction function, consulted only when the
    /// majority-loss path did not fire.
    ///
    /// Sends the `⟨noMaj, needReconf⟩` messages to the trusted participants
    /// into `out`.
    pub fn step(
        &mut self,
        recsa: &mut RecSa,
        mut eval_conf: impl FnMut(&ConfigSet) -> bool,
        out: &mut impl Sink<RecMaMsg>,
    ) {
        // Line 6: only participants run the layer.
        if !recsa.is_participant() {
            return;
        }
        let me = self.me;
        let cur_conf = recsa.get_config_shared(); // line 7
        self.set_flags(me, false, false); // line 8

        // Line 9: a configuration change invalidates all collected flags.
        if let Some(prev) = &self.prev_config {
            if !same_config(prev, &cur_conf) {
                self.flush_flags();
            }
        }

        // Line 10: only act while no reconfiguration is taking place.
        if recsa.no_reco() {
            self.prev_config = Some(cur_conf.clone()); // line 11
            if let Some(cur_set) = cur_conf.as_set() {
                let trusted = recsa.my_trusted_shared();

                // Line 12: majority visibility test. `noMaj[i]` stays in this
                // local until the prediction path stores it: nothing reads
                // the processor's own entry before that, and the
                // majority-collapse path flushes it anyway.
                let visible = cur_set.iter().filter(|m| trusted.contains(m)).count();
                let no_maj = visible < cur_set.len() / 2 + 1;

                let core = self.core(recsa);
                let core_agrees_no_majority =
                    !core.is_empty() && core.iter().all(|k| *k == me || self.flags_of(*k).no_maj);

                if no_maj && core.len() > 1 && core_agrees_no_majority {
                    // Lines 13–14: majority collapse — trigger with the local
                    // participant set as the proposed configuration.
                    if recsa.estab(recsa.my_part()) {
                        self.triggerings += 1;
                    }
                    self.flush_flags();
                } else {
                    // Lines 16–18: prediction-function path.
                    let wants = eval_conf(cur_set);
                    self.set_flags(me, no_maj, wants);
                    let supporters = cur_set
                        .iter()
                        .filter(|m| trusted.contains(m))
                        .filter(|m| self.flags_of(**m).need_reconf)
                        .count();
                    if wants && supporters > cur_set.len() / 2 {
                        if recsa.estab(recsa.my_part()) {
                            self.triggerings += 1;
                        }
                        self.flush_flags();
                    }
                }
            }
        }

        // Line 19: exchange the flags with every trusted participant.
        let Flags {
            no_maj,
            need_reconf,
        } = self.flags_of(me);
        for p in recsa.my_part_shared().iter().copied().filter(|p| *p != me) {
            out.push(
                p,
                RecMaMsg {
                    no_maj,
                    need_reconf,
                },
            );
        }
    }

    /// Handles a flag message from `from` (line 20). Non-participants ignore
    /// the exchange.
    pub fn on_message(&mut self, from: ProcessId, msg: RecMaMsg, is_participant: bool) {
        if !is_participant || from == self.me {
            return;
        }
        self.set_flags(from, msg.no_maj, msg.need_reconf);
    }

    /// Overwrites the stored flags of `peer`, modelling transient faults
    /// (used by the `recma_triggerings` experiment).
    pub fn corrupt_flags(&mut self, peer: ProcessId, no_maj: bool, need_reconf: bool) {
        self.set_flags(peer, no_maj, need_reconf);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::types::config_set;
    use simnet::stack::Outbox;

    /// Synchronous harness combining recSA and recMA with a perfect failure
    /// detector (the full stack with a real detector is exercised by the
    /// node-level and integration tests).
    struct Harness {
        recsa: BTreeMap<ProcessId, RecSa>,
        recma: BTreeMap<ProcessId, RecMa>,
        alive: BTreeSet<ProcessId>,
        /// Which processors' `evalConf()` currently returns `true`.
        eval_true: BTreeSet<ProcessId>,
    }

    impl Harness {
        fn with_config(n: u32, cfg: &ConfigSet) -> Self {
            Harness::with_ids(0..n, cfg)
        }

        fn with_ids(ids: impl IntoIterator<Item = u32>, cfg: &ConfigSet) -> Self {
            let recsa = ids
                .into_iter()
                .map(ProcessId::new)
                .map(|id| (id, RecSa::new_with_config(id, cfg.clone())))
                .collect::<BTreeMap<_, _>>();
            let recma = recsa.keys().map(|id| (*id, RecMa::new(*id))).collect();
            let alive = recsa.keys().copied().collect();
            Harness {
                recsa,
                recma,
                alive,
                eval_true: BTreeSet::new(),
            }
        }

        fn crash(&mut self, id: u32) {
            self.alive.remove(&ProcessId::new(id));
        }

        fn round(&mut self) {
            let alive = self.alive.clone();
            let mut sa_out = Vec::new();
            let mut ma_out = Vec::new();
            for id in &alive {
                let recsa = self.recsa.get_mut(id).unwrap();
                let mut out = Outbox::new();
                recsa.step(&alive, &mut out);
                for (to, m) in out.into_messages() {
                    sa_out.push((*id, to, m));
                }
                let recma = self.recma.get_mut(id).unwrap();
                let wants = self.eval_true.contains(id);
                let mut out = Outbox::new();
                recma.step(recsa, |_| wants, &mut out);
                for (to, m) in out.into_messages() {
                    ma_out.push((*id, to, m));
                }
            }
            for (from, to, m) in sa_out {
                if alive.contains(&to) {
                    self.recsa.get_mut(&to).unwrap().on_message(from, &m);
                }
            }
            for (from, to, m) in ma_out {
                if alive.contains(&to) {
                    let is_part = self.recsa[&to].is_participant();
                    self.recma
                        .get_mut(&to)
                        .unwrap()
                        .on_message(from, m, is_part);
                }
            }
        }

        fn rounds(&mut self, n: usize) {
            for _ in 0..n {
                self.round();
            }
        }

        fn total_triggerings(&self) -> u64 {
            self.recma.values().map(RecMa::triggerings).sum()
        }

        fn config_of(&self, id: u32) -> Option<ConfigSet> {
            self.recsa[&ProcessId::new(id)].installed_config()
        }
    }

    #[test]
    fn steady_state_never_triggers() {
        let cfg = config_set([0, 1, 2, 3]);
        let mut h = Harness::with_config(4, &cfg);
        h.rounds(60);
        assert_eq!(h.total_triggerings(), 0);
        assert_eq!(h.config_of(0), Some(cfg));
    }

    #[test]
    fn majority_collapse_triggers_reconfiguration() {
        let cfg = config_set([0, 1, 2, 3, 4]);
        let mut h = Harness::with_config(5, &cfg);
        h.rounds(15);
        // Three of five members crash: the remaining two participants lose
        // the configuration majority and must reconfigure to survive.
        h.crash(2);
        h.crash(3);
        h.crash(4);
        h.rounds(80);
        assert!(h.total_triggerings() >= 1, "majority loss must trigger");
        let expected = config_set([0, 1]);
        assert_eq!(h.config_of(0), Some(expected.clone()));
        assert_eq!(h.config_of(1), Some(expected));
    }

    #[test]
    fn minority_crash_does_not_trigger_majority_path() {
        let cfg = config_set([0, 1, 2, 3, 4]);
        let mut h = Harness::with_config(5, &cfg);
        h.rounds(15);
        h.crash(4);
        h.rounds(60);
        // A majority survives and the prediction function is `Never`:
        // the configuration stays as it is.
        assert_eq!(h.total_triggerings(), 0);
        assert_eq!(h.config_of(0), Some(cfg));
    }

    #[test]
    fn prediction_function_needs_a_majority_of_supporters() {
        let cfg = config_set([0, 1, 2, 3]);
        let mut h = Harness::with_config(4, &cfg);
        h.rounds(15);
        // Only one processor wants a reconfiguration: no trigger.
        h.eval_true.insert(ProcessId::new(0));
        h.rounds(40);
        assert_eq!(h.total_triggerings(), 0);
        // A majority wants it: the configuration is replaced by the
        // participant set (which equals the old membership here, so recSA
        // rejects identical sets — use a crash to make the sets differ).
        h.crash(3);
        h.eval_true.insert(ProcessId::new(1));
        h.eval_true.insert(ProcessId::new(2));
        h.rounds(80);
        assert!(h.total_triggerings() >= 1);
        assert_eq!(h.config_of(0), Some(config_set([0, 1, 2])));
    }

    #[test]
    fn each_event_triggers_at_most_once_per_processor() {
        let cfg = config_set([0, 1, 2, 3, 4]);
        let mut h = Harness::with_config(5, &cfg);
        h.rounds(15);
        h.crash(2);
        h.crash(3);
        h.crash(4);
        h.rounds(120);
        // Lemma 3.21: one trigger per participant per event; two survivors
        // means at most two triggerings in total for this single collapse.
        assert!(
            h.total_triggerings() <= 2,
            "triggered {} times",
            h.total_triggerings()
        );
    }

    #[test]
    fn corrupt_no_maj_flags_cause_bounded_spurious_triggers() {
        let cfg = config_set([0, 1, 2, 3]);
        let mut h = Harness::with_config(4, &cfg);
        h.rounds(15);
        // Transient fault: processor 0 believes everyone reported noMaj,
        // including itself.
        for k in 0..4 {
            h.recma.get_mut(&ProcessId::new(0)).unwrap().corrupt_flags(
                ProcessId::new(k),
                true,
                false,
            );
        }
        h.rounds(60);
        // The corruption may cause at most a bounded number of triggerings
        // (Lemma 3.18); here the flags are flushed on first use, so at most
        // one, and the system settles back into a steady configuration.
        assert!(h.total_triggerings() <= 1);
        let final_cfg = h.config_of(0).expect("a configuration is installed");
        assert_eq!(h.config_of(1), Some(final_cfg));
    }

    /// Flags stored for an identifier above the dense limit (the table's
    /// ordered spill) drive a step exactly like flags stored for a small
    /// one, and a flush clears them the same.
    #[test]
    fn flags_of_a_spilled_identifier_step_like_dense_ones() {
        let run = |x: u32| {
            let p0 = ProcessId::new(0);
            let px = ProcessId::new(x);
            let cfg = config_set([0, 1, 2, x]);
            let mut h = Harness::with_ids([0, 1, 2, x], &cfg);
            h.rounds(15);
            h.crash(2);
            h.rounds(15);
            assert_eq!(h.total_triggerings(), 0);
            // Transient fault at p0: both surviving peers appear to support
            // the reconfiguration p0's prediction function asks for.
            let recma = h.recma.get_mut(&p0).unwrap();
            recma.corrupt_flags(ProcessId::new(1), false, true);
            recma.corrupt_flags(px, true, true);
            assert!(recma.flags_of(px).need_reconf);
            let mut out = Outbox::new();
            recma.step(h.recsa.get_mut(&p0).unwrap(), |_| true, &mut out);
            let sent: Vec<(bool, RecMaMsg)> = out
                .into_messages()
                .into_iter()
                .map(|(to, msg)| (to == px, msg))
                .collect();
            let recma = &h.recma[&p0];
            // The trigger flushed every stored flag, spilled or not.
            assert_eq!(recma.triggerings(), 1);
            assert!(!recma.flags_of(px).no_maj && !recma.flags_of(px).need_reconf);
            assert!(!recma.flags_of(ProcessId::new(1)).need_reconf);
            h.rounds(80);
            (
                sent,
                h.total_triggerings(),
                h.config_of(0) == Some(config_set([0, 1, x])),
            )
        };
        let dense = run(7);
        let spilled = run(PeerTable::<Flags>::DENSE_LIMIT + 7);
        assert_eq!(dense, spilled);
        assert!(dense.2, "the triggered reconfiguration did not complete");
    }

    /// A peer whose flags were received as `false` and a peer never heard
    /// from read the same everywhere the flags are consulted.
    #[test]
    fn stored_false_and_absent_flags_are_indistinguishable() {
        let cfg = config_set([0, 1, 2, 3, 4]);
        let mut h = Harness::with_config(5, &cfg);
        h.rounds(15);
        h.crash(2);
        h.crash(3);
        h.crash(4);
        // While the survivors work towards the reconfiguration, probe p0's
        // every state with a recMA that never heard from anyone and with
        // one that heard `false` from everyone.
        let p0 = ProcessId::new(0);
        let mut consulted_the_core = false;
        for _ in 0..40 {
            h.round();
            let absent = RecMa::new(p0);
            let mut stored = RecMa::new(p0);
            for k in 0..5 {
                stored.corrupt_flags(ProcessId::new(k), false, false);
            }
            let outcomes: Vec<_> = [absent, stored]
                .into_iter()
                .map(|mut recma| {
                    let mut out = Outbox::new();
                    recma.step(&mut h.recsa[&p0].clone(), |_| true, &mut out);
                    let sent = out.into_messages();
                    (sent, recma.no_majority_flag(), recma.triggerings())
                })
                .collect();
            assert_eq!(outcomes[0], outcomes[1]);
            let (sent, no_majority, triggerings) = &outcomes[0];
            if *no_majority {
                // p0 sees no majority and its core is {p0, p1}: p1's `noMaj`
                // was read, as `false` either way, so nothing fired.
                consulted_the_core = true;
                assert_eq!(*triggerings, 0);
                let own_flags = RecMaMsg {
                    no_maj: true,
                    need_reconf: true,
                };
                assert_eq!(sent, &vec![(ProcessId::new(1), own_flags)]);
            }
        }
        assert!(
            consulted_the_core,
            "no probe reached the majority-loss path"
        );
    }

    #[test]
    fn non_participant_does_not_run_recma() {
        let cfg = config_set([0, 1]);
        let mut recsa = RecSa::new_joiner(ProcessId::new(5));
        let mut recma = RecMa::new(ProcessId::new(5));
        let mut out = Outbox::<RecMaMsg>::new();
        recma.step(&mut recsa, |_| true, &mut out);
        assert!(out.is_empty());
        assert_eq!(recma.triggerings(), 0);
        // Flag messages received while not a participant are ignored.
        recma.on_message(
            ProcessId::new(0),
            RecMaMsg {
                no_maj: true,
                need_reconf: true,
            },
            false,
        );
        assert!(!recma.no_majority_flag());
        let _ = cfg;
    }
}
