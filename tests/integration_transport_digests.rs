//! Per-transport behaviour pins.
//!
//! Every sender/receiver pair runs a small fixed scenario and the whole
//! observable outcome is folded into one FNV digest: every completion,
//! both endpoints' `TransportStats` for every flow, the fabric's
//! `NetStats`, the event count and the final clock. The goldens below were
//! captured before the senders were rebuilt on the shared `SenderCore`;
//! a refactor of the send path must leave every one of them unchanged.
//!
//! The fabric is a 2-spine/2-leaf CLOS whose leaf uplinks are lossy: wire
//! BER on every other cable, Gilbert–Elliott bursts on the rest, so GBN
//! rewinds, SACK recovery, RACK/TLP, RTOs, EC repair and NACKs, MP-RDMA's
//! go-back and DCP's header-only retransmissions all feed the trace. Each
//! transport runs its paper-default CC; the DCQCN rows add the CC-tick
//! path for the senders that arm it. The software-stack model runs on a
//! clean back-to-back link, the way `fig08_perftest` builds it.

use dcp_bench::{default_cc, fabric_cables};
use dcp_core::dcp_switch_config;
use dcp_faults::{FaultEngine, FaultPlan, LossModel};
use dcp_netsim::packet::{FlowId, NodeId};
use dcp_netsim::switch::{EcnConfig, SwitchConfig};
use dcp_netsim::time::{SEC, US};
use dcp_netsim::topology::Topology;
use dcp_netsim::{topology, CompletionKind, LoadBalance, Simulator};
use dcp_rdma::headers::DcpTag;
use dcp_rdma::qp::WorkReqOp;
use dcp_transport::cc::NoCc;
use dcp_transport::common::{FlowCfg, Placement};
use dcp_transport::swtcp::{swtcp_pair, SwTcpConfig};
use dcp_workloads::{endpoint_pair, CcKind, TransportKind};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

fn fnv_u64(h: u64, v: u64) -> u64 {
    fnv_bytes(h, &v.to_le_bytes())
}

const HOSTS_PER_LEAF: usize = 4;
const FLOWS: usize = 6;
const MSGS: u64 = 4;
const MSG_BYTES: u64 = 64 * 1024;

/// The fabric discipline each transport is evaluated on (the fault
/// matrix's schemes).
fn switch_config(kind: TransportKind) -> SwitchConfig {
    match kind {
        TransportKind::Dcp => dcp_switch_config(LoadBalance::AdaptiveRouting, 20),
        TransportKind::Irn | TransportKind::Ec => SwitchConfig::lossy(LoadBalance::AdaptiveRouting),
        TransportKind::MpRdma => {
            let mut cfg = SwitchConfig::lossless(LoadBalance::Ecmp);
            cfg.ecn = Some(EcnConfig::default_100g());
            cfg
        }
        TransportKind::Gbn | TransportKind::RackTlp | TransportKind::TimeoutOnly => {
            SwitchConfig::lossy(LoadBalance::Ecmp)
        }
    }
}

/// Posts every flow's messages, runs to quiescence (or 1 s) and digests
/// the outcome. `pairs` lists each flow's (id, sender host, receiver host).
fn run_digest(mut sim: Simulator, pairs: &[(FlowId, NodeId, NodeId)]) -> u64 {
    for &(flow, src, _) in pairs {
        for m in 0..MSGS {
            sim.post(
                src,
                flow,
                m,
                WorkReqOp::Write { remote_addr: 0x10_0000 + m * MSG_BYTES, rkey: 1 },
                MSG_BYTES,
            );
        }
    }
    let mut h = FNV_OFFSET;
    let mut completions = 0u64;
    while sim.now() < SEC {
        if sim.advance().is_none() {
            break;
        }
        sim.for_each_completion(|c| {
            completions += 1;
            h = fnv_u64(h, c.host.0 as u64);
            h = fnv_u64(h, c.flow.0 as u64);
            h = fnv_u64(h, c.wr_id);
            h = fnv_u64(h, matches!(c.kind, CompletionKind::RecvComplete) as u64);
            h = fnv_u64(h, c.bytes);
            h = fnv_u64(h, c.imm as u64);
            h = fnv_u64(h, c.at);
        });
    }
    assert_eq!(completions, 2 * MSGS * pairs.len() as u64, "every message completes at both ends");
    for &(flow, src, dst) in pairs {
        h = fnv_bytes(h, format!("{:?}", sim.endpoint_stats(src, flow)).as_bytes());
        h = fnv_bytes(h, format!("{:?}", sim.endpoint_stats(dst, flow)).as_bytes());
    }
    h = fnv_bytes(h, format!("{:?}", sim.net_stats()).as_bytes());
    h = fnv_u64(h, sim.events_processed());
    fnv_u64(h, sim.now())
}

/// One transport on the lossy CLOS.
fn lossy_clos_digest(kind: TransportKind, cc: CcKind) -> u64 {
    let mut sim = Simulator::new(0x7d16);
    sim.disable_auto_partition();
    let topo: Topology =
        topology::clos(&mut sim, switch_config(kind), 2, 2, HOSTS_PER_LEAF, 100.0, 100.0, US, US);
    let cables = fabric_cables(&sim, &topo, HOSTS_PER_LEAF);
    let (ber, ge): (Vec<_>, Vec<_>) = cables.iter().enumerate().partition(|(i, _)| i % 2 == 0);
    let ber: Vec<_> = ber.into_iter().map(|(_, c)| *c).collect();
    let ge: Vec<_> = ge.into_iter().map(|(_, c)| *c).collect();
    let plan = FaultPlan::new(0x1055)
        .with_loss_on(&ber, LossModel::wire_ber(1e-6))
        .with_loss_on(&ge, LossModel::bursty(2e-3, 0.2))
        .sorted();
    FaultEngine::install(&mut sim, plan);
    let n = topo.hosts.len();
    let pairs: Vec<_> = (0..FLOWS)
        .map(|i| (FlowId(i as u32 + 1), topo.hosts[i], topo.hosts[(i + HOSTS_PER_LEAF) % n]))
        .collect();
    for &(flow, src, dst) in &pairs {
        let (tx, rx) = endpoint_pair(kind, cc, flow, src, dst);
        sim.install_endpoint(src, flow, tx);
        sim.install_endpoint(dst, flow, rx);
    }
    run_digest(sim, &pairs)
}

/// The software-stack model on a clean back-to-back 100G link.
fn swtcp_digest() -> u64 {
    let mut sim = Simulator::new(3);
    let topo = topology::back_to_back(&mut sim, 100.0, 500);
    let flow = FlowId(1);
    let (src, dst) = (topo.hosts[0], topo.hosts[1]);
    let cfg = FlowCfg::sender(flow, src, dst, DcpTag::NonDcp);
    let (tx, rx) =
        swtcp_pair(cfg, SwTcpConfig::default(), Box::new(NoCc::default()), Placement::Virtual);
    sim.install_endpoint(src, flow, Box::new(tx));
    sim.install_endpoint(dst, flow, Box::new(rx));
    run_digest(sim, &[(flow, src, dst)])
}

const DCQCN: CcKind = CcKind::Dcqcn { gbps: 100.0 };

/// (case, digest at the pre-refactor senders).
const GOLDENS: [(&str, u64); 12] = [
    ("dcp", 0x0e5a4df3c31dbf4b),
    ("gbn", 0x43da91886ed07077),
    ("irn", 0xe241a07ccb409226),
    ("racktlp", 0x4f43cb44d1cb77ff),
    ("timeout_only", 0xb0a8833d899a0c14),
    ("mprdma", 0x668d54ee860bff7f),
    ("ec", 0xeef270e990546ef1),
    ("dcp+nocc", 0xc40c8f41377c252c),
    ("gbn+dcqcn", 0x3332c3a46b723c31),
    ("irn+dcqcn", 0x8e0f91863d1426b0),
    ("ec+dcqcn", 0xd8d8e715629284fb),
    ("swtcp", 0x0a9ca799a098122c),
];

fn case_digest(case: &str) -> u64 {
    let default = |k: TransportKind| lossy_clos_digest(k, default_cc(k));
    match case {
        "dcp" => default(TransportKind::Dcp),
        "gbn" => default(TransportKind::Gbn),
        "irn" => default(TransportKind::Irn),
        "racktlp" => default(TransportKind::RackTlp),
        "timeout_only" => default(TransportKind::TimeoutOnly),
        "mprdma" => default(TransportKind::MpRdma),
        "ec" => default(TransportKind::Ec),
        // DCP's default CC already is DCQCN; this row covers the no-tick path.
        "dcp+nocc" => lossy_clos_digest(TransportKind::Dcp, CcKind::None),
        "gbn+dcqcn" => lossy_clos_digest(TransportKind::Gbn, DCQCN),
        "irn+dcqcn" => lossy_clos_digest(TransportKind::Irn, DCQCN),
        "ec+dcqcn" => lossy_clos_digest(TransportKind::Ec, DCQCN),
        "swtcp" => swtcp_digest(),
        other => panic!("unknown case {other}"),
    }
}

#[test]
fn every_transport_matches_its_golden_digest() {
    let got: Vec<(&str, u64, u64)> =
        GOLDENS.iter().map(|&(case, want)| (case, want, case_digest(case))).collect();
    let report: String = got
        .iter()
        .map(|(case, want, have)| format!("  {case:<14} want {want:#018x}  got {have:#018x}\n"))
        .collect();
    assert!(got.iter().all(|(_, want, have)| want == have), "transport digests moved:\n{report}");
}
