//! The wire path below the live runtime, measured against in-memory
//! buffers: `simnet::codec` encode/decode and `livenet::frame` write/read
//! over real `SharedMemMsg`s captured from a small simulation. Only
//! `live-n4` uses these layers; the simulator workloads never encode.

use std::cell::RefCell;
use std::hint::black_box;
use std::io::Cursor;
use std::time::Instant;

use livenet::frame::{read_frame, write_frame};
use sharedmem::{SharedMemMsg, SharedMemNode};
use simnet::codec::WireCodec;
use simnet::scenario::{find, ScenarioTarget};
use simnet::{Context, Process, ProcessId, SchedulerMode, Simulation};

use crate::harness::Outcome;

/// Messages to capture: the issue asks for at least 10 k.
const CAPTURE: usize = 12_000;
/// Passes over the captured set; the fastest pass is reported.
const PASSES: usize = 5;

thread_local! {
    static CAPTURED: RefCell<Vec<SharedMemMsg>> = const { RefCell::new(Vec::new()) };
}

/// A `SharedMemNode` that keeps a copy of what it receives.
struct Capturing(SharedMemNode);

impl Process for Capturing {
    type Msg = SharedMemMsg;

    fn on_timer(&mut self, ctx: &mut Context<'_, SharedMemMsg>) {
        self.0.on_timer(ctx);
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: SharedMemMsg,
        ctx: &mut Context<'_, SharedMemMsg>,
    ) {
        CAPTURED.with(|c| {
            let mut captured = c.borrow_mut();
            if captured.len() < CAPTURE {
                captured.push(msg.clone());
            }
        });
        self.0.on_message(from, msg, ctx);
    }
}

/// Real traffic of an n = 4 sharedmem system serving one client op per
/// round: reconfiguration gossip and register protocol messages in the mix
/// the live cluster carries.
fn capture(seed: u64) -> Result<Vec<SharedMemMsg>, String> {
    let n = 4;
    let scenario = find("quiescent", n).expect("the catalog has `quiescent`");
    let mut sim: Simulation<Capturing> =
        Simulation::new(scenario.sim_config(seed, SchedulerMode::EventDriven));
    for i in 0..n as u32 {
        let id = ProcessId::new(i);
        sim.add_process_with_id(id, Capturing(SharedMemNode::spawn_initial(id, n)));
    }
    CAPTURED.with(|c| c.borrow_mut().clear());
    for round in 0..10_000u64 {
        if CAPTURED.with(|c| c.borrow().len()) >= CAPTURE {
            break;
        }
        if round >= 20 {
            let via = ProcessId::new((round % n as u64) as u32);
            let node = sim.process_mut(via).expect("initial population");
            node.0.submit_local(round, round);
            while node.0.complete_local().is_some() {}
        }
        sim.step_round();
    }
    let captured = CAPTURED.with(|c| std::mem::take(&mut *c.borrow_mut()));
    if captured.len() < CAPTURE {
        return Err(format!("captured only {} messages", captured.len()));
    }
    Ok(captured)
}

/// Fastest of [`PASSES`] timings of `pass`, in nanoseconds per message.
fn fastest(msgs: usize, mut pass: impl FnMut()) -> f64 {
    (0..PASSES)
        .map(|_| {
            let started = Instant::now();
            pass();
            started.elapsed().as_nanos() as f64 / msgs as f64
        })
        .fold(f64::INFINITY, f64::min)
}

pub fn measure(out: &mut Outcome, seed: u64) -> Result<(), String> {
    let msgs = capture(seed)?;
    let count = msgs.len();
    let mut buf = Vec::new();
    let encode = fastest(count, || {
        for msg in &msgs {
            buf.clear();
            black_box(msg).encode(&mut buf);
            black_box(&buf);
        }
    });
    let encoded: Vec<Vec<u8>> = msgs.iter().map(WireCodec::to_bytes).collect();
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    let mut decoded_ok = true;
    let decode = fastest(count, || {
        for bytes in &encoded {
            decoded_ok &= black_box(SharedMemMsg::from_bytes(black_box(bytes))).is_ok();
        }
    });
    let sender = ProcessId::new(1);
    let mut stream = Vec::new();
    let write = fastest(count, || {
        stream.clear();
        for envelope in &encoded {
            write_frame(&mut stream, sender, black_box(envelope)).expect("writing to memory");
        }
        black_box(&stream);
    });
    let mut read_back = 0usize;
    let read = fastest(count, || {
        let mut cursor = Cursor::new(stream.as_slice());
        read_back = 0;
        while (cursor.position() as usize) < stream.len() {
            match read_frame::<SharedMemMsg>(&mut cursor) {
                Ok(frame) => {
                    black_box(frame);
                    read_back += 1;
                }
                Err(_) => break,
            }
        }
    });
    // The same command checks the wire path is right, not just fast.
    if !decoded_ok || read_back != count {
        return Err(format!(
            "wire round trip lost messages: decoded_ok={decoded_ok}, frames read {read_back}/{count}"
        ));
    }
    let first = SharedMemMsg::from_bytes(&encoded[0]).map_err(|e| e.to_string())?;
    if first != msgs[0] {
        return Err("a decoded message differs from what was encoded".into());
    }
    out.set("simnet.codec.encode_ns_per_msg", encode, count as u64);
    out.set("simnet.codec.decode_ns_per_msg", decode, count as u64);
    out.set(
        "simnet.codec.bytes_per_msg",
        bytes as f64 / count as f64,
        count as u64,
    );
    // A frame read includes decoding the envelope (that is `read_frame`'s
    // contract); the write side takes an already-encoded envelope.
    out.set("livenet.frame.write_ns_per_frame", write, count as u64);
    out.set("livenet.frame.read_ns_per_frame", read, count as u64);
    Ok(())
}
