//! Wire-codec round-trip and malformed-input tests for the SMR envelope
//! ([`SmrMsg`]), which nests the reconfiguration and counter envelopes.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;
use std::sync::Arc;

use counters::{Counter, CounterMsg};
use labels::Label;
use proptest::prelude::*;
use reconfig::{RecMaMsg, ReconfigMsg};
use simnet::codec::{DecodeError, WireCodec};
use simnet::{ProcessId, SimRng};
use vssmr::{Command, Op, ReplicaState, SmrMsg, StateMsg, Status, View};

fn arb_pid(rng: &mut SimRng) -> ProcessId {
    ProcessId::new(rng.range_inclusive(0, 40) as u32)
}

fn arb_counter(rng: &mut SimRng) -> Counter {
    Counter {
        label: Label {
            creator: arb_pid(rng),
            sting: rng.range_inclusive(0, 1 << 16) as u32,
            antistings: Arc::new(
                (0..rng.range_inclusive(0, 3))
                    .map(|_| rng.range_inclusive(0, 1 << 16) as u32)
                    .collect(),
            ),
        },
        seqn: rng.range_inclusive(0, 1 << 40),
        wid: arb_pid(rng),
    }
}

fn arb_view(rng: &mut SimRng) -> View {
    View {
        id: arb_counter(rng),
        members: Arc::new(
            (0..rng.range_inclusive(1, 5))
                .map(|_| arb_pid(rng))
                .collect::<BTreeSet<_>>(),
        ),
    }
}

fn arb_command(rng: &mut SimRng) -> Command {
    Command {
        client: arb_pid(rng),
        seq: rng.range_inclusive(0, 1 << 30),
        op: if rng.chance(0.8) {
            Op::Write {
                key: rng.range_inclusive(0, 64) as u32,
                value: rng.range_inclusive(0, u64::MAX / 2),
            }
        } else {
            Op::Noop
        },
    }
}

fn arb_state_msg(rng: &mut SimRng) -> StateMsg {
    StateMsg {
        view: rng.chance(0.7).then(|| arb_view(rng)),
        prop_view: rng.chance(0.3).then(|| arb_view(rng)),
        status: match rng.range_inclusive(0, 2) {
            0 => Status::Multicast,
            1 => Status::Propose,
            _ => Status::Install,
        },
        rnd: rng.range_inclusive(0, 1 << 30),
        state: ReplicaState {
            registers: Arc::new(
                (0..rng.range_inclusive(0, 6))
                    .map(|_| {
                        (
                            rng.range_inclusive(0, 64) as u32,
                            rng.range_inclusive(0, u64::MAX / 2),
                        )
                    })
                    .collect::<BTreeMap<_, _>>(),
            ),
            applied: rng.range_inclusive(0, 1 << 30),
        },
        input: rng.chance(0.5).then(|| arb_command(rng)),
        no_crd: rng.chance(0.5),
        suspend: rng.chance(0.5),
    }
}

fn arb_msg(rng: &mut SimRng) -> SmrMsg {
    match rng.range_inclusive(0, 2) {
        0 => SmrMsg::Reconfig(if rng.chance(0.5) {
            ReconfigMsg::Heartbeat
        } else {
            ReconfigMsg::RecMa(RecMaMsg {
                no_maj: rng.chance(0.5),
                need_reconf: rng.chance(0.5),
            })
        }),
        1 => SmrMsg::Counter(CounterMsg::Sync(arb_counter(rng))),
        _ => SmrMsg::State(Arc::new(arb_state_msg(rng))),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn envelope_roundtrips(seed in 0u64..u64::MAX) {
        let msg = arb_msg(&mut SimRng::seed_from(seed));
        let bytes = msg.to_bytes();
        prop_assert_eq!(SmrMsg::from_bytes(&bytes), Ok(msg));
    }

    #[test]
    fn strict_prefixes_never_decode(seed in 0u64..u64::MAX) {
        let msg = arb_msg(&mut SimRng::seed_from(seed));
        let bytes = msg.to_bytes();
        for cut in 0..bytes.len() {
            prop_assert!(SmrMsg::from_bytes(&bytes[..cut]).is_err());
        }
    }
}

#[test]
fn nested_envelopes_roundtrip_through_the_outer_codec() {
    // A full RecSa payload rides the Reconfig lane of SmrMsg unchanged.
    let mut rng = SimRng::seed_from(11);
    let inner = reconfig::RecSaMsg {
        own: Arc::new(reconfig::RecSaOwn {
            fd: Arc::new([arb_pid(&mut rng)].into_iter().collect()),
            part: Arc::new(BTreeSet::new()),
            config: Arc::new(reconfig::types::ConfigValue::Bottom),
            prp: Arc::new(reconfig::types::Notification::default()),
            all: true,
        }),
        echo: reconfig::types::EchoTriple {
            part: Arc::new(BTreeSet::new()),
            prp: Arc::new(reconfig::types::Notification::default()),
            all: false,
        },
    };
    let msg = SmrMsg::Reconfig(ReconfigMsg::RecSa(inner));
    assert_eq!(SmrMsg::from_bytes(&msg.to_bytes()), Ok(msg));
}

#[test]
fn unknown_lane_tag_is_a_typed_error() {
    assert_eq!(
        SmrMsg::from_bytes(&[8]),
        Err(DecodeError::UnknownLane {
            ty: "SmrMsg",
            tag: 8
        })
    );
}

#[test]
fn oversized_register_map_claim_is_rejected() {
    // State lane with view=None, prop_view=None, status, rnd, then a
    // register map claiming u32::MAX entries.
    let mut bytes = vec![2, 0, 0, 0];
    bytes.extend_from_slice(&0u64.to_le_bytes());
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    let err = SmrMsg::from_bytes(&bytes).unwrap_err();
    assert!(matches!(
        err,
        DecodeError::TooLarge { .. } | DecodeError::Truncated { .. }
    ));
}

/// What `livenet` puts on a socket for one fixed `State` broadcast, byte for
/// byte (taken from the codec before `View::members` and
/// `ReplicaState::registers` moved behind `Arc`): the shared handles must
/// stay invisible on the wire.
#[test]
fn state_broadcast_wire_bytes_are_pinned() {
    let pid = ProcessId::new;
    let msg = SmrMsg::State(Arc::new(StateMsg {
        view: Some(View {
            id: Counter {
                label: Label {
                    creator: pid(2),
                    sting: 7,
                    antistings: Arc::new([3, 5].into()),
                },
                seqn: 0x0102_0304,
                wid: pid(1),
            },
            members: Arc::new([pid(0), pid(1), pid(2)].into_iter().collect()),
        }),
        prop_view: None,
        status: Status::Multicast,
        rnd: 9,
        state: ReplicaState {
            registers: Arc::new([(4, 40), (65, 1 << 40)].into_iter().collect()),
            applied: 12,
        },
        input: Some(Command {
            client: pid(2),
            seq: 3,
            op: Op::Write { key: 4, value: 41 },
        }),
        no_crd: false,
        suspend: true,
    }));
    #[rustfmt::skip]
    let pinned: [u8; 124] = [
        2,                                              // SmrMsg::State
        1, 2, 0, 0, 0, 7, 0, 0, 0,                      // view: Some, label creator, sting
        2, 0, 0, 0, 3, 0, 0, 0, 5, 0, 0, 0,             // antistings {3, 5}
        4, 3, 2, 1, 0, 0, 0, 0, 1, 0, 0, 0,             // seqn, wid
        3, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, // members {0, 1, 2}
        0, 0,                                           // prop_view: None, Multicast
        9, 0, 0, 0, 0, 0, 0, 0,                         // rnd
        2, 0, 0, 0,                                     // two registers
        4, 0, 0, 0, 40, 0, 0, 0, 0, 0, 0, 0,
        65, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0,
        12, 0, 0, 0, 0, 0, 0, 0,                        // applied
        1, 2, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0,          // input: Some, client, seq
        0, 4, 0, 0, 0, 41, 0, 0, 0, 0, 0, 0, 0,         // Op::Write { 4, 41 }
        0, 1,                                           // no_crd, suspend
    ];
    assert_eq!(msg.to_bytes(), pinned);
    assert_eq!(SmrMsg::from_bytes(&pinned), Ok(msg));
}

/// One value of every variant of `T`, in declaration order, with the bytes
/// the hand-written codec gave it; the next tag is an unknown lane of `ty`.
fn pin_every_variant<T: WireCodec + PartialEq + Debug>(ty: &'static str, table: &[(T, Vec<u8>)]) {
    for (value, bytes) in table {
        assert_eq!(&value.to_bytes(), bytes, "{value:?}");
        assert_eq!(T::from_bytes(bytes).as_ref(), Ok(value));
    }
    let tag = table.len() as u8;
    let unknown = DecodeError::UnknownLane { ty, tag };
    assert_eq!(T::from_bytes(&[tag]).err(), Some(unknown));
}

/// The bytes of every variant of the enums this crate puts on the wire.
#[rustfmt::skip]
#[test]
fn every_variant_wire_bytes_are_pinned() {
    pin_every_variant("Op", &[
        (Op::Write { key: 4, value: 41 }, vec![0, 4, 0, 0, 0, 41, 0, 0, 0, 0, 0, 0, 0]),
        (Op::Noop, vec![1]),
    ]);
    pin_every_variant("Status", &[
        (Status::Multicast, vec![0]),
        (Status::Propose, vec![1]),
        (Status::Install, vec![2]),
    ]);
}
