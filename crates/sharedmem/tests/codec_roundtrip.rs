//! Wire-codec round-trip and malformed-input tests for the shared-memory
//! envelope ([`SharedMemMsg`]).

use std::fmt::Debug;
use std::sync::Arc;

use counters::Counter;
use labels::Label;
use proptest::prelude::*;
use reconfig::{JoinMsg, ReconfigMsg};
use sharedmem::{OpId, RegisterId, RegisterMsg, SharedMemMsg, TaggedValue};
use simnet::codec::{DecodeError, WireCodec};
use simnet::{ProcessId, SimRng};

fn arb_pid(rng: &mut SimRng) -> ProcessId {
    ProcessId::new(rng.range_inclusive(0, 40) as u32)
}

fn arb_tagged(rng: &mut SimRng) -> TaggedValue {
    TaggedValue {
        tag: Counter {
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
        },
        value: rng.range_inclusive(0, u64::MAX / 2),
    }
}

fn arb_op(rng: &mut SimRng) -> OpId {
    OpId {
        origin: arb_pid(rng),
        seq: rng.range_inclusive(0, 1 << 30),
    }
}

fn arb_key(rng: &mut SimRng) -> RegisterId {
    RegisterId::new(rng.range_inclusive(0, 1 << 20))
}

fn arb_msg(rng: &mut SimRng) -> SharedMemMsg {
    if rng.chance(0.3) {
        return SharedMemMsg::Reconfig(if rng.chance(0.5) {
            ReconfigMsg::Heartbeat
        } else {
            ReconfigMsg::Join(JoinMsg::Response {
                pass: rng.chance(0.5),
            })
        });
    }
    SharedMemMsg::Register(match rng.range_inclusive(0, 5) {
        0 => RegisterMsg::Query {
            op: arb_op(rng),
            key: arb_key(rng),
        },
        1 => RegisterMsg::QueryResp {
            op: arb_op(rng),
            key: arb_key(rng),
            current: rng.chance(0.5).then(|| arb_tagged(rng)),
        },
        2 => RegisterMsg::Update {
            op: arb_op(rng),
            key: arb_key(rng),
            value: arb_tagged(rng),
        },
        3 => RegisterMsg::UpdateAck { op: arb_op(rng) },
        4 => RegisterMsg::OpAbort { op: arb_op(rng) },
        _ => RegisterMsg::StoreSync {
            entries: (0..rng.range_inclusive(0, 5))
                .map(|_| (arb_key(rng), arb_tagged(rng)))
                .collect(),
        },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn envelope_roundtrips(seed in 0u64..u64::MAX) {
        let msg = arb_msg(&mut SimRng::seed_from(seed));
        let bytes = msg.to_bytes();
        prop_assert_eq!(SharedMemMsg::from_bytes(&bytes), Ok(msg));
    }

    #[test]
    fn strict_prefixes_never_decode(seed in 0u64..u64::MAX) {
        let msg = arb_msg(&mut SimRng::seed_from(seed));
        let bytes = msg.to_bytes();
        for cut in 0..bytes.len() {
            prop_assert!(SharedMemMsg::from_bytes(&bytes[..cut]).is_err());
        }
    }
}

#[test]
fn unknown_lane_tags_are_typed_errors() {
    assert_eq!(
        SharedMemMsg::from_bytes(&[4]),
        Err(DecodeError::UnknownLane {
            ty: "SharedMemMsg",
            tag: 4
        })
    );
    assert_eq!(
        SharedMemMsg::from_bytes(&[1, 200]),
        Err(DecodeError::UnknownLane {
            ty: "RegisterMsg",
            tag: 200
        })
    );
}

#[test]
fn oversized_store_sync_claim_is_rejected() {
    // Register lane → StoreSync with a u32::MAX entry claim.
    let mut bytes = vec![1, 5];
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    let err = SharedMemMsg::from_bytes(&bytes).unwrap_err();
    assert!(matches!(
        err,
        DecodeError::TooLarge { .. } | DecodeError::Truncated { .. }
    ));
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
    let (op, key) = (OpId::new(ProcessId::new(3), 4), RegisterId::new(8));
    let tag = Counter::zero(Label::genesis(ProcessId::new(2)), ProcessId::new(1));
    let value = TaggedValue::new(tag, 10);
    let (o, k, v): (&[u8], &[u8], &[u8]) = (
        &[3, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0],  // op: origin, seq
        &[8, 0, 0, 0, 0, 0, 0, 0],              // key
        &[2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,   // tag: creator, sting, antistings
          0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0,   // seqn, wid
          10, 0, 0, 0, 0, 0, 0, 0],             // value
    );
    let (current, update) = (Some(value.clone()), value.clone());
    pin_every_variant("RegisterMsg", &[
        (RegisterMsg::Query { op, key }, [&[0], o, k].concat()),
        (RegisterMsg::QueryResp { op, key, current }, [&[1], o, k, &[1], v].concat()),
        (RegisterMsg::Update { op, key, value: update }, [&[2], o, k, v].concat()),
        (RegisterMsg::UpdateAck { op }, [&[3], o].concat()),
        (RegisterMsg::OpAbort { op }, [&[4], o].concat()),
        (RegisterMsg::StoreSync { entries: vec![(key, value)] }, [&[5, 1, 0, 0, 0], k, v].concat()),
    ]);
}
