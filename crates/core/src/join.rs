//! The joining mechanism — Algorithm 3.3.
//!
//! A processor that wants to participate repeatedly asks the members of the
//! current configuration for a *pass*. Only when
//!
//! * no reconfiguration is taking place, and
//! * a majority of the configuration members granted a pass (the application
//!   decides through `passQuery()` / [`crate::policy::AdmissionPolicy`]),
//!
//! does it call `participate()` and become a participant. Until then it only
//! listens, so a joiner can never contaminate the system with stale
//! information (Theorem 3.26).
//!
//! The paper first has the snap-stabilizing data link clean the joiner's
//! channels. No clean runs here: a joiner gets a fresh identifier, and the
//! stale packets its links may hold — pass grants nobody issued to it,
//! recSA broadcasts of corrupted members — are tolerated, as
//! `stale_packets_on_a_joiners_links_are_tolerated`
//! (`tests/joining_admission.rs`) checks.

use std::collections::BTreeMap;

use simnet::stack::Sink;
use simnet::ProcessId;

use crate::recsa::RecSa;
use crate::types::ConfigValue;

/// Messages of the joining mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinMsg {
    /// "Join" — a joiner asking the configuration members for a pass.
    Request,
    /// A configuration member's response: whether the pass is granted.
    /// (The application-state snapshot the paper attaches here is exchanged
    /// by the application layer itself — in this repository by the virtual
    /// synchrony state transfer — so the core message stays payload-free.)
    Response {
        /// `true` grants the pass; `false` denies or retracts it.
        pass: bool,
    },
}

impl simnet::codec::WireCodec for JoinMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            JoinMsg::Request => out.push(0),
            JoinMsg::Response { pass } => {
                out.push(1);
                simnet::codec::WireCodec::encode(pass, out);
            }
        }
    }
    fn decode(r: &mut simnet::codec::Reader<'_>) -> Result<Self, simnet::codec::DecodeError> {
        match r.u8()? {
            0 => Ok(JoinMsg::Request),
            1 => Ok(JoinMsg::Response {
                pass: simnet::codec::WireCodec::decode(r)?,
            }),
            tag => Err(simnet::codec::DecodeError::UnknownLane { ty: "JoinMsg", tag }),
        }
    }
}

/// Per-processor state of the joining mechanism.
#[derive(Debug, Clone)]
pub struct Joining {
    me: ProcessId,
    /// `pass[]` — the most recent response from each configuration member.
    pass: BTreeMap<ProcessId, bool>,
    /// Number of times this processor became a participant through
    /// `participate()` (0 or 1 in legal executions; observability).
    joins_completed: u64,
}

impl Joining {
    /// Creates the joining state for processor `me` (the `join()` procedure's
    /// initialization, line 5: all passes start as `false`).
    pub fn new(me: ProcessId) -> Self {
        Joining {
            me,
            pass: BTreeMap::new(),
            joins_completed: 0,
        }
    }

    /// Resets all collected passes (used on (re)initialization).
    pub fn reset(&mut self) {
        self.pass.clear();
    }

    /// Number of successful `participate()` transitions.
    pub fn joins_completed(&self) -> u64 {
        self.joins_completed
    }

    /// Number of currently collected positive passes (observability).
    pub fn passes_collected(&self) -> usize {
        self.pass.values().filter(|p| **p).count()
    }

    /// One iteration of the joiner's side of the `do forever` loop
    /// (lines 6–14), sending the `Join` requests into `out`. Participants do
    /// nothing here.
    pub fn step(&mut self, recsa: &mut RecSa, out: &mut impl Sink<JoinMsg>) {
        if recsa.is_participant() {
            return;
        }
        // Line 10: become a participant once a majority of the configuration
        // members granted a pass and no reconfiguration is taking place.
        if recsa.no_reco() {
            if let ConfigValue::Set(com_conf) = &*recsa.get_config_shared() {
                let granted = com_conf
                    .iter()
                    .filter(|m| self.pass.get(m).copied().unwrap_or(false))
                    .count();
                if granted > com_conf.len() / 2 && recsa.participate() {
                    self.joins_completed += 1;
                    return;
                }
            }
        }
        // Line 13: keep asking every trusted processor to let us in.
        for p in recsa.my_trusted_shared().iter().copied() {
            if p != self.me {
                out.push(p, JoinMsg::Request);
            }
        }
    }

    /// The participant's side (lines 15–16): answer a join request from
    /// `from`. `admit` is the application's `passQuery()` verdict. Returns
    /// the response to send, if any.
    pub fn on_request(&self, from: ProcessId, recsa: &RecSa, admit: bool) -> Option<JoinMsg> {
        let _ = from;
        let config = recsa.get_config_shared();
        let member = config
            .as_set()
            .map(|c| c.contains(&recsa.me()))
            .unwrap_or(false);
        if member && recsa.no_reco() {
            Some(JoinMsg::Response { pass: admit })
        } else if recsa.is_participant() {
            // Outside the calm period (or as a non-member) the pass is
            // explicitly retracted, so a joiner cannot slip in during a
            // reconfiguration on the strength of old passes.
            Some(JoinMsg::Response { pass: false })
        } else {
            None
        }
    }

    /// The joiner's side of a pass response (lines 17–18). Participants
    /// ignore responses.
    pub fn on_response(&mut self, from: ProcessId, pass: bool, is_participant: bool) {
        if is_participant {
            return;
        }
        self.pass.insert(from, pass);
    }

    /// Overwrites a stored pass, modelling a transient fault.
    pub fn corrupt_pass(&mut self, from: ProcessId, pass: bool) {
        self.pass.insert(from, pass);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{config_set, ConfigSet};
    use simnet::stack::Outbox;
    use std::collections::BTreeSet;

    /// Synchronous harness combining recSA and the joining mechanism with a
    /// perfect failure detector.
    struct Harness {
        recsa: BTreeMap<ProcessId, RecSa>,
        joining: BTreeMap<ProcessId, Joining>,
        alive: BTreeSet<ProcessId>,
        admit: bool,
    }

    impl Harness {
        fn with_config(n: u32, cfg: &ConfigSet) -> Self {
            let recsa: BTreeMap<ProcessId, RecSa> = (0..n)
                .map(|i| {
                    (
                        ProcessId::new(i),
                        RecSa::new_with_config(ProcessId::new(i), cfg.clone()),
                    )
                })
                .collect();
            let joining = (0..n)
                .map(|i| (ProcessId::new(i), Joining::new(ProcessId::new(i))))
                .collect();
            let alive = recsa.keys().copied().collect();
            Harness {
                recsa,
                joining,
                alive,
                admit: true,
            }
        }

        fn add_joiner(&mut self, id: u32) {
            let id = ProcessId::new(id);
            self.recsa.insert(id, RecSa::new_joiner(id));
            self.joining.insert(id, Joining::new(id));
            self.alive.insert(id);
        }

        fn round(&mut self) {
            let alive = self.alive.clone();
            let mut sa_out = Vec::new();
            let mut join_out = Vec::new();
            for id in &alive {
                let recsa = self.recsa.get_mut(id).unwrap();
                let mut out = Outbox::new();
                recsa.step(&alive, &mut out);
                for (to, m) in out.into_messages() {
                    sa_out.push((*id, to, m));
                }
                let joining = self.joining.get_mut(id).unwrap();
                let mut out = Outbox::new();
                joining.step(recsa, &mut out);
                for (to, m) in out.into_messages() {
                    join_out.push((*id, to, m));
                }
            }
            for (from, to, m) in sa_out {
                if alive.contains(&to) {
                    self.recsa.get_mut(&to).unwrap().on_message(from, m);
                }
            }
            let mut responses = Vec::new();
            for (from, to, m) in join_out {
                if !alive.contains(&to) {
                    continue;
                }
                match m {
                    JoinMsg::Request => {
                        let recsa = &self.recsa[&to];
                        if let Some(resp) = self.joining[&to].on_request(from, recsa, self.admit) {
                            responses.push((to, from, resp));
                        }
                    }
                    JoinMsg::Response { pass } => {
                        let is_part = self.recsa[&to].is_participant();
                        self.joining
                            .get_mut(&to)
                            .unwrap()
                            .on_response(from, pass, is_part);
                    }
                }
            }
            for (from, to, m) in responses {
                if let JoinMsg::Response { pass } = m {
                    if alive.contains(&to) {
                        let is_part = self.recsa[&to].is_participant();
                        self.joining
                            .get_mut(&to)
                            .unwrap()
                            .on_response(from, pass, is_part);
                    }
                }
            }
        }

        fn rounds(&mut self, n: usize) {
            for _ in 0..n {
                self.round();
            }
        }

        fn is_participant(&self, id: u32) -> bool {
            self.recsa[&ProcessId::new(id)].is_participant()
        }
    }

    #[test]
    fn joiner_is_admitted_with_majority_passes() {
        let cfg = config_set([0, 1, 2]);
        let mut h = Harness::with_config(3, &cfg);
        h.rounds(15);
        h.add_joiner(3);
        h.rounds(20);
        assert!(h.is_participant(3), "joiner should have been admitted");
        assert_eq!(h.joining[&ProcessId::new(3)].joins_completed(), 1);
        // The configuration itself did not change because of the join.
        assert_eq!(
            h.recsa[&ProcessId::new(0)].installed_config(),
            Some(cfg.clone())
        );
        assert_eq!(h.recsa[&ProcessId::new(3)].installed_config(), Some(cfg));
    }

    #[test]
    fn joiner_is_rejected_when_application_denies() {
        let cfg = config_set([0, 1, 2]);
        let mut h = Harness::with_config(3, &cfg);
        h.admit = false;
        h.rounds(15);
        h.add_joiner(3);
        h.rounds(40);
        assert!(!h.is_participant(3), "denied joiner must not participate");
        assert_eq!(h.joining[&ProcessId::new(3)].passes_collected(), 0);
    }

    #[test]
    fn joiner_waits_during_reconfiguration() {
        let cfg = config_set([0, 1, 2]);
        let mut h = Harness::with_config(3, &cfg);
        h.rounds(15);
        h.add_joiner(3);
        // Let the joiner collect some passes, then start a reconfiguration
        // before it has a majority.
        h.round();
        h.recsa
            .get_mut(&ProcessId::new(0))
            .unwrap()
            .estab(config_set([0, 1]));
        // While the replacement is running the joiner must not be admitted on
        // the strength of stale passes alone; it is admitted only once the
        // system is calm again.
        h.rounds(60);
        assert!(h.is_participant(3));
        assert_eq!(
            h.recsa[&ProcessId::new(3)].installed_config(),
            Some(config_set([0, 1]))
        );
    }

    #[test]
    fn corrupt_passes_alone_do_not_admit_without_majority() {
        let cfg = config_set([0, 1, 2, 3, 4]);
        let mut h = Harness::with_config(5, &cfg);
        h.rounds(15);
        h.add_joiner(5);
        // Transient fault: the joiner believes two members granted passes.
        let joiner = h.joining.get_mut(&ProcessId::new(5)).unwrap();
        joiner.corrupt_pass(ProcessId::new(0), true);
        joiner.corrupt_pass(ProcessId::new(1), true);
        // Two of five is not a majority, so a single joining step does not
        // admit; with the default AdmitAll application the joiner is then
        // legitimately admitted anyway once real passes arrive.
        let recsa = h.recsa.get_mut(&ProcessId::new(5)).unwrap();
        let joining = h.joining.get_mut(&ProcessId::new(5)).unwrap();
        joining.step(recsa, &mut Outbox::<JoinMsg>::new());
        assert!(!h.is_participant(5));
    }

    #[test]
    fn participants_do_not_send_join_requests() {
        let cfg = config_set([0, 1]);
        let mut h = Harness::with_config(2, &cfg);
        h.rounds(10);
        let recsa = h.recsa.get_mut(&ProcessId::new(0)).unwrap();
        let joining = h.joining.get_mut(&ProcessId::new(0)).unwrap();
        let mut out = Outbox::<JoinMsg>::new();
        joining.step(recsa, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn pass_is_retracted_during_reconfiguration() {
        let cfg = config_set([0, 1, 2]);
        let mut h = Harness::with_config(3, &cfg);
        h.rounds(15);
        // Begin a replacement, then ask member 0 for a pass: it must answer
        // with `pass = false`.
        h.recsa
            .get_mut(&ProcessId::new(0))
            .unwrap()
            .estab(config_set([0, 1]));
        let recsa0 = &h.recsa[&ProcessId::new(0)];
        let resp = h.joining[&ProcessId::new(0)].on_request(ProcessId::new(9), recsa0, true);
        assert_eq!(resp, Some(JoinMsg::Response { pass: false }));
    }
}
