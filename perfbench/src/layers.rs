//! Per-layer probes of a traced run: the benchmark times calls into each
//! layer's public functions, at the sizes the workload uses.

use crate::stats::median;
use crate::workloads::ProbeSizes;
use integrade_core::asct::SchedulingPreference;
use integrade_core::grid::GridConfig;
use integrade_core::grm::{GrmState, NodeRegistration};
use integrade_core::gupa::GupaCell;
use integrade_core::protocol::{
    node_props, CheckpointBlob, StatusUpdate, StoreCheckpoint, NODE_SERVICE_TYPE, OP_STORE_CKPT,
    OP_UPDATE_STATUS,
};
use integrade_core::types::{JobId, NodeId, Platform, ResourceVector};
use integrade_orb::cdr::{CdrDecode, CdrEncode};
use integrade_orb::{AnyValue, Endpoint, Ior, Message, ObjectKey, OfferId, Orb};
use integrade_simnet::event::EventQueue;
use integrade_simnet::rng::DetRng;
use integrade_simnet::time::SimTime;
use integrade_simnet::topology::HostId;
use integrade_usage::sample::{DayPeriod, Weekday};
use std::hint::black_box;
use std::time::Instant;

/// Timed batches per probe; the median batch is reported.
const BATCHES: usize = 15;

/// Runs `op` in batches of `per_batch` calls and returns the median
/// nanoseconds per call. `op` receives the call index.
fn time_ns(per_batch: usize, mut op: impl FnMut(usize)) -> f64 {
    let mut samples = Vec::with_capacity(BATCHES);
    let mut i = 0;
    for _ in 0..BATCHES {
        let start = Instant::now();
        for _ in 0..per_batch {
            op(i);
            i += 1;
        }
        samples.push(start.elapsed().as_nanos() as f64 / per_batch as f64);
    }
    median(&samples)
}

fn grm_ior() -> Ior {
    Ior::new(
        "IDL:integrade/Grm:1.0",
        Endpoint::new(0, 1),
        ObjectKey::new("grm"),
    )
}

/// `(encode ns, decode ns)` of the workload's StatusUpdate frame: the
/// encoding the LRM's ORB performs, and `Message::from_wire` alone.
pub fn status_frame_ns(update: &StatusUpdate) -> (f64, f64) {
    let mut orb = Orb::new(Endpoint::new(1, 1));
    let target = grm_ior();
    let mut out = Vec::new();
    let encode = time_ns(20_000, |_| {
        out.clear();
        let msg = update.clone();
        orb.make_request_into(&target, OP_UPDATE_STATUS, move |w| msg.encode(w), &mut out);
        black_box(&out);
    });
    let frame = out.clone();
    let decode = time_ns(20_000, |_| {
        black_box(Message::from_wire(black_box(&frame)).is_ok());
    });
    (encode, decode)
}

/// Nanoseconds per KiB to decode a StoreCheckpoint frame carrying
/// `state_bytes` of checkpoint state: the frame and its argument body.
pub fn checkpoint_decode_ns_per_kb(state_bytes: u64) -> f64 {
    let payload = vec![0u8; state_bytes as usize];
    let req = StoreCheckpoint {
        request_id: 1,
        origin: NodeId(1),
        blob: CheckpointBlob {
            job: JobId(1),
            part: 0,
            version: 1,
            work_mips_s: 1_000,
            digest: 0,
            payload: payload.as_slice().into(),
        },
    };
    let mut orb = Orb::new(Endpoint::new(1, 1));
    let mut frame = Vec::new();
    orb.make_request_into(&grm_ior(), OP_STORE_CKPT, |w| req.encode(w), &mut frame);
    let calls = (200_000_000 / (state_bytes.max(1_024) as usize)).clamp(20, 20_000);
    let ns = time_ns(calls, |_| {
        if let Ok(Message::Request { body, .. }) = Message::from_wire(black_box(&frame)) {
            black_box(StoreCheckpoint::from_cdr_bytes(&body).is_ok());
        }
    });
    ns * 1_024.0 / frame.len() as f64
}

/// A GRM whose trader holds `offers` idle desktop offers.
fn populated_grm(offers: usize, status: &StatusUpdate) -> GrmState {
    let mut grm = GrmState::new(1);
    for i in 0..offers {
        let node = NodeId(i as u32);
        grm.register_node(NodeRegistration {
            node,
            host: HostId(i as u32 + 1),
            resources: ResourceVector::desktop(),
            platform: Platform::linux_x86(),
            lrm: Ior::new(
                "IDL:integrade/Lrm:1.0",
                Endpoint::new(i as u32 + 1, 1),
                ObjectKey::new(format!("lrm-{i}")),
            ),
        });
        grm.handle_update(&StatusUpdate {
            node,
            seq: 1,
            ..status.clone()
        });
    }
    grm
}

/// Nanoseconds per `Trader::modify_values` on an offer set of the
/// workload's size. Each call rewrites one offer's five status slots with
/// values that differ from the stored ones, so index upkeep runs.
pub fn trader_modify_ns(offers: usize, status: &StatusUpdate) -> f64 {
    let mut grm = populated_grm(offers, status);
    let trader = grm.trader_mut();
    let slots = [
        trader.property_slot(node_props::FREE_CPU),
        trader.property_slot(node_props::FREE_RAM_MB),
        trader.property_slot(node_props::EXPORTING),
        trader.property_slot(node_props::OWNER_ACTIVE),
        trader.property_slot(node_props::RUNNING_PARTS),
    ];
    let ids: Vec<OfferId> = (0..=offers as u64 + 1)
        .map(OfferId)
        .filter(|id| trader.offer(*id).is_some())
        .collect();
    let s = status.status;
    time_ns(20_000, |i| {
        let flip = (i / ids.len()) % 2 == 1;
        let updates = [
            (
                slots[0],
                AnyValue::Double(if flip {
                    s.free_cpu_fraction * 0.5
                } else {
                    s.free_cpu_fraction
                }),
            ),
            (
                slots[1],
                AnyValue::Long(s.free_ram_mb as i64 - i64::from(flip)),
            ),
            (slots[2], AnyValue::Bool(s.exporting)),
            (slots[3], AnyValue::Bool(s.owner_active)),
            (
                slots[4],
                AnyValue::Long(i64::from(s.running_parts) + i64::from(flip)),
            ),
        ];
        black_box(trader.modify_values(ids[i % ids.len()], updates).is_ok());
    })
}

/// Microseconds per `Trader::query` with the workload's job constraint,
/// fastest-CPU preference and the default candidate cap.
pub fn trader_query_us(sizes: &ProbeSizes, status: &StatusUpdate) -> f64 {
    let mut grm = populated_grm(sizes.offers, status);
    let constraint = sizes.requirements.to_constraint();
    let preference = SchedulingPreference::FastestCpu.to_trader_preference();
    let cap = GridConfig::default().max_candidates;
    let trader = grm.trader_mut();
    time_ns(200, |_| {
        black_box(
            trader
                .query(NODE_SERVICE_TYPE, &constraint, preference, cap)
                .map(|o| o.len()),
        )
        .ok();
    }) / 1_000.0
}

/// Nanoseconds per `EventQueue::schedule_at` plus `pop` at the workload's
/// occupancy: `occupancy` repeating timers with a 30 s period, each popped
/// timer re-armed one period later, as the update timers are.
pub fn schedule_pop_ns(occupancy: usize) -> f64 {
    let period_us = 30_000_000;
    let mut queue: EventQueue<u32> = EventQueue::new();
    let mut rng = DetRng::new(3);
    for i in 0..occupancy.max(1) {
        queue.schedule_at(
            SimTime::from_micros(rng.uniform_range(0, period_us)),
            i as u32,
        );
    }
    time_ns(50_000, |_| {
        if let Some((t, e)) = queue.pop() {
            queue.schedule_at(SimTime::from_micros(t.as_micros() + period_us), e);
        }
    })
}

/// Microseconds for `GupaCell::digest` of one day-period that triggers a
/// retrain: six days of history are digested untimed, then the seventh is
/// timed.
pub fn gupa_digest_us(trace: &[integrade_usage::sample::UsageSample]) -> f64 {
    let config = GridConfig::default();
    let per_day = (24 * 60 / config.lrm.sampling.interval_mins) as usize;
    let day = |d: usize| DayPeriod {
        day: d as u64,
        weekday: Weekday::from_day_number(d as u64),
        samples: (0..per_day)
            .map(|s| trace[(d * per_day + s) % trace.len().max(1)])
            .collect(),
    };
    let history: Vec<DayPeriod> = (0..6).map(day).collect();
    let seventh = day(6);
    let mut samples = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let mut cell = GupaCell::default();
        cell.digest(config.lupa, history.clone());
        let upload = vec![seventh.clone()];
        let start = Instant::now();
        black_box(cell.digest(config.lupa, upload));
        samples.push(start.elapsed().as_nanos() as f64 / 1_000.0);
    }
    median(&samples)
}
