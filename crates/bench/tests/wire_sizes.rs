//! Pins the in-memory size of every value that travels between processes.
//!
//! A message is copied about six times per hop before its lane handler
//! sees it: into the payload, into the step's send buffer, into the arrival
//! log, out of it at delivery, through the scheduler's hand-off, and out of
//! the wire enum into its lane. Each copy is a `memcpy` of the value's full
//! size, whatever the variant — a heartbeat inside `SmrMsg` pays for the
//! largest variant. Up to about 128 bytes LLVM copies inline; beyond that
//! every copy is a call to `memmove`, which was a third of the `ops-n24`
//! profile before the two oversized lanes moved behind `Arc`s.
//!
//! A new field that breaks a pin must put its bulk behind an `Arc` (as
//! `Label::antistings`, `SmrMsg::State` and recSA's own half do) instead of
//! raising the pin.
//!
//! `ReconfigMsg`'s size is also what sets a `steady-n256` arrival-log entry:
//! an entry is the message plus 16 B (sender and delivery round), so the
//! 32-byte pin is a 48-byte entry, written once per simulated send.

use std::mem::size_of;

use counters::CounterMsg;
use labels::Label;
use reconfig::ReconfigMsg;
use sharedmem::SharedMemMsg;
use vssmr::SmrMsg;

#[test]
fn wire_values_stay_small() {
    let sizes = [
        ("SmrMsg", size_of::<SmrMsg>(), 72),
        ("CounterMsg", size_of::<CounterMsg>(), 72),
        ("SharedMemMsg", size_of::<SharedMemMsg>(), 72),
        ("ReconfigMsg", size_of::<ReconfigMsg>(), 32),
        ("Label", size_of::<Label>(), 16),
    ];
    for (name, size, pin) in sizes {
        println!("{name}: {size} B (pin {pin} B)");
    }
    for (name, size, pin) in sizes {
        assert!(
            size <= pin,
            "{name} is {size} B, over its {pin} B pin: put the new bulk behind an Arc"
        );
    }
}
