//! Wire-codec round-trip and malformed-input tests for the counter-service
//! envelope ([`CounterMsg`]).

use std::collections::BTreeSet;
use std::fmt::Debug;
use std::sync::Arc;

use counters::{Counter, CounterMsg, QuorumMsg};
use labels::{Label, LabelPair, LabelerMsg};
use proptest::prelude::*;
use simnet::codec::{DecodeError, WireCodec};
use simnet::{ProcessId, SimRng};

fn arb_pid(rng: &mut SimRng) -> ProcessId {
    ProcessId::new(rng.range_inclusive(0, 40) as u32)
}

fn arb_label(rng: &mut SimRng) -> Label {
    let n = rng.range_inclusive(0, 4);
    Label {
        creator: arb_pid(rng),
        sting: rng.range_inclusive(0, 1 << 20) as u32,
        antistings: Arc::new(
            (0..n)
                .map(|_| rng.range_inclusive(0, 1 << 20) as u32)
                .collect::<BTreeSet<u32>>(),
        ),
    }
}

fn arb_pair(rng: &mut SimRng) -> LabelPair {
    LabelPair {
        ml: arb_label(rng),
        cl: rng.chance(0.5).then(|| arb_label(rng)),
    }
}

fn arb_counter(rng: &mut SimRng) -> Counter {
    Counter {
        label: arb_label(rng),
        seqn: rng.range_inclusive(0, u64::MAX / 2),
        wid: arb_pid(rng),
    }
}

fn arb_msg(rng: &mut SimRng) -> CounterMsg {
    match rng.range_inclusive(0, 2) {
        0 => CounterMsg::Sync(arb_counter(rng)),
        1 => CounterMsg::Label(LabelerMsg {
            sent_max: arb_pair(rng),
            last_sent: rng.chance(0.5).then(|| arb_pair(rng)),
        }),
        _ => CounterMsg::Quorum(match rng.range_inclusive(0, 3) {
            0 => QuorumMsg::ReadRequest {
                op: rng.range_inclusive(0, 1 << 30),
            },
            1 => QuorumMsg::ReadReply {
                op: rng.range_inclusive(0, 1 << 30),
                counter: rng.chance(0.5).then(|| arb_counter(rng)),
                abort: rng.chance(0.5),
            },
            2 => QuorumMsg::WriteRequest {
                op: rng.range_inclusive(0, 1 << 30),
                counter: arb_counter(rng),
            },
            _ => QuorumMsg::WriteAck {
                op: rng.range_inclusive(0, 1 << 30),
                abort: rng.chance(0.5),
            },
        }),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn envelope_roundtrips(seed in 0u64..u64::MAX) {
        let msg = arb_msg(&mut SimRng::seed_from(seed));
        let bytes = msg.to_bytes();
        prop_assert_eq!(CounterMsg::from_bytes(&bytes), Ok(msg));
    }

    #[test]
    fn strict_prefixes_never_decode(seed in 0u64..u64::MAX) {
        let msg = arb_msg(&mut SimRng::seed_from(seed));
        let bytes = msg.to_bytes();
        for cut in 0..bytes.len() {
            prop_assert!(CounterMsg::from_bytes(&bytes[..cut]).is_err());
        }
    }
}

#[test]
fn unknown_lane_tags_are_typed_errors() {
    assert_eq!(
        CounterMsg::from_bytes(&[9]),
        Err(DecodeError::UnknownLane {
            ty: "CounterMsg",
            tag: 9
        })
    );
    // Nested enums reject their own bad tags too: Quorum lane, bad QuorumMsg tag.
    assert_eq!(
        CounterMsg::from_bytes(&[2, 77]),
        Err(DecodeError::UnknownLane {
            ty: "QuorumMsg",
            tag: 77
        })
    );
}

#[test]
fn oversized_antisting_claim_is_rejected() {
    // Sync lane → Counter → Label: antistings claims u32::MAX elements.
    let mut bytes = vec![0];
    bytes.extend_from_slice(&7u32.to_le_bytes()); // label.creator
    bytes.extend_from_slice(&3u32.to_le_bytes()); // label.sting
    bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // antistings length claim
    let err = CounterMsg::from_bytes(&bytes).unwrap_err();
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
    let counter = Counter::zero(Label::genesis(ProcessId::new(2)), ProcessId::new(1));
    let reply = QuorumMsg::ReadReply { op: 5, counter: Some(counter.clone()), abort: false };
    let (c, op5, op6): (&[u8], &[u8], &[u8]) = (
        &[2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0], // counter
        &[5, 0, 0, 0, 0, 0, 0, 0], // op 5
        &[6, 0, 0, 0, 0, 0, 0, 0], // op 6
    );
    pin_every_variant("QuorumMsg", &[
        (QuorumMsg::ReadRequest { op: 5 }, [&[0], op5].concat()),
        (reply, [&[1], op5, &[1], c, &[0]].concat()),
        (QuorumMsg::WriteRequest { op: 6, counter }, [&[2], op6, c].concat()),
        (QuorumMsg::WriteAck { op: 6, abort: true }, [&[3], op6, &[1]].concat()),
    ]);
}
