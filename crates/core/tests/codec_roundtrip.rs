//! Wire-codec round-trip and malformed-input tests for the reconfiguration
//! envelope ([`ReconfigMsg`]): encode→decode is the identity on arbitrary
//! payloads, and truncated/oversized/unknown-lane frames decode to typed
//! errors — never panics.

use std::collections::BTreeSet;
use std::fmt::Debug;
use std::sync::Arc;

use proptest::prelude::*;
use reconfig::types::{
    config_set, shared_config, shared_ntf, shared_set, ConfigValue, EchoTriple, Notification, Phase,
};
use reconfig::{JoinMsg, RecMaMsg, RecSaMsg, RecSaOwn, ReconfigMsg};
use simnet::codec::{DecodeError, WireCodec};
use simnet::{ProcessId, SimRng};

fn arb_pid(rng: &mut SimRng) -> ProcessId {
    ProcessId::new(rng.range_inclusive(0, 40) as u32)
}

fn arb_set(rng: &mut SimRng) -> BTreeSet<ProcessId> {
    let n = rng.range_inclusive(0, 5);
    (0..n).map(|_| arb_pid(rng)).collect()
}

fn arb_config(rng: &mut SimRng) -> ConfigValue {
    match rng.range_inclusive(0, 2) {
        0 => ConfigValue::NonParticipant,
        1 => ConfigValue::Bottom,
        _ => ConfigValue::Set(arb_set(rng)),
    }
}

fn arb_phase(rng: &mut SimRng) -> Phase {
    match rng.range_inclusive(0, 2) {
        0 => Phase::Zero,
        1 => Phase::One,
        _ => Phase::Two,
    }
}

fn arb_ntf(rng: &mut SimRng) -> Notification {
    Notification {
        phase: arb_phase(rng),
        set: rng.chance(0.5).then(|| arb_set(rng)),
    }
}

fn arb_own(rng: &mut SimRng) -> RecSaOwn {
    RecSaOwn {
        fd: Arc::new(arb_set(rng)),
        part: Arc::new(arb_set(rng)),
        config: Arc::new(arb_config(rng)),
        prp: Arc::new(arb_ntf(rng)),
        all: rng.chance(0.5),
    }
}

fn arb_msg(rng: &mut SimRng) -> ReconfigMsg {
    match rng.range_inclusive(0, 3) {
        0 => ReconfigMsg::Heartbeat,
        1 => ReconfigMsg::RecSa(RecSaMsg {
            own: Arc::new(arb_own(rng)),
            echo: EchoTriple {
                part: Arc::new(arb_set(rng)),
                prp: Arc::new(arb_ntf(rng)),
                all: rng.chance(0.5),
            },
        }),
        2 => ReconfigMsg::RecMa(RecMaMsg {
            no_maj: rng.chance(0.5),
            need_reconf: rng.chance(0.5),
        }),
        _ => ReconfigMsg::Join(if rng.chance(0.5) {
            JoinMsg::Request
        } else {
            JoinMsg::Response {
                pass: rng.chance(0.5),
            }
        }),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn envelope_roundtrips(seed in 0u64..u64::MAX) {
        let msg = arb_msg(&mut SimRng::seed_from(seed));
        let bytes = msg.to_bytes();
        prop_assert_eq!(ReconfigMsg::from_bytes(&bytes), Ok(msg));
    }

    #[test]
    fn strict_prefixes_never_decode(seed in 0u64..u64::MAX) {
        let msg = arb_msg(&mut SimRng::seed_from(seed));
        let bytes = msg.to_bytes();
        for cut in 0..bytes.len() {
            prop_assert!(ReconfigMsg::from_bytes(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn own_half_roundtrips(seed in 0u64..u64::MAX) {
        let own = arb_own(&mut SimRng::seed_from(seed));
        prop_assert_eq!(RecSaOwn::from_bytes(&own.to_bytes()), Ok(own));
    }
}

/// A recSA frame is the sender's five own values and then the echo, each
/// encoded as its contents: sharing the own half changed the in-memory
/// message, not its bytes, so a node that shares it and one that does not
/// read each other's frames. The bytes were captured from the codec of the
/// six-field message the own half was split out of.
#[test]
fn recsa_wire_bytes_are_pinned() {
    let msg = RecSaMsg {
        own: Arc::new(RecSaOwn {
            fd: shared_set(config_set([0, 1, 2])),
            part: shared_set(config_set([0, 1])),
            config: shared_config(ConfigValue::Set(config_set([0, 1, 2]))),
            prp: shared_ntf(Notification::new(Phase::One, config_set([1, 2]))),
            all: true,
        }),
        echo: EchoTriple {
            part: shared_set(config_set([2])),
            prp: shared_ntf(Notification::dflt()),
            all: false,
        },
    };
    #[rustfmt::skip]
    let pinned: [u8; 71] = [
        3, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, // fd = {0, 1, 2}
        2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, // part = {0, 1}
        2, 3, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, // config = Set {0, 1, 2}
        1, 1, 2, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, // prp = ⟨1, {1, 2}⟩
        1, // all
        1, 0, 0, 0, 2, 0, 0, 0, // echo.part = {2}
        0, 0, // echo.prp = ⟨0, ⊥⟩
        0, // echo.all
    ];
    assert_eq!(msg.to_bytes(), pinned);
    let mut envelope = vec![1];
    envelope.extend_from_slice(&pinned);
    assert_eq!(ReconfigMsg::RecSa(msg.clone()).to_bytes(), envelope);
    assert_eq!(
        ReconfigMsg::from_bytes(&envelope),
        Ok(ReconfigMsg::RecSa(msg))
    );
}

#[test]
fn unknown_lane_tag_is_a_typed_error() {
    assert_eq!(
        ReconfigMsg::from_bytes(&[250]),
        Err(DecodeError::UnknownLane {
            ty: "ReconfigMsg",
            tag: 250
        })
    );
}

#[test]
fn oversized_set_claim_is_rejected() {
    // RecSa lane (tag 1) whose `fd` set claims u32::MAX elements.
    let mut bytes = vec![1];
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    let err = ReconfigMsg::from_bytes(&bytes).unwrap_err();
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
    pin_every_variant("JoinMsg", &[
        (JoinMsg::Request, vec![0]),
        (JoinMsg::Response { pass: true }, vec![1, 1]),
    ]);
    pin_every_variant("ConfigValue", &[
        (ConfigValue::NonParticipant, vec![0]),
        (ConfigValue::Bottom, vec![1]),
        (ConfigValue::Set(config_set([1, 2])), vec![2, 2, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0]),
    ]);
    pin_every_variant("Phase", &[
        (Phase::Zero, vec![0]),
        (Phase::One, vec![1]),
        (Phase::Two, vec![2]),
    ]);
}
