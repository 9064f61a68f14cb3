//! Wire-codec round-trip and malformed-input tests for the shared-memory
//! envelope ([`SharedMemMsg`]).

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
