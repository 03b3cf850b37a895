// Central calibration of the simulation cost model.
//
// Every timing constant used by the substrates lives here, annotated with the
// paper statement it reproduces. The absolute values are *derived* so that the
// microbenchmarks in section 4.1 land on the paper's measured numbers (e.g.
// two-sided 64 B echo RTT = 8.4 us, Fig. 12); the macro results (Figs. 13-17,
// Table 2) then *emerge* from composing these calibrated pieces — they are
// never hard-coded. tests/calibration_test.cc pins the microbenchmarks to
// tolerance bands around the paper's numbers.
//
// All constants are plain struct fields so ablation benches can perturb a
// single mechanism (e.g. force the on-path DNE, or swap DWRR for FCFS) while
// holding everything else fixed.

#ifndef SRC_CORE_CALIBRATION_H_
#define SRC_CORE_CALIBRATION_H_

#include "src/sim/time.h"

namespace nadino {

struct CostModel {
  // --- Fabric (testbed: 200 Gbps switch between DPUs / ingress RNIC) -------
  double fabric_gbps = 200.0;          // Link rate, section 4 testbed.
  SimDuration link_propagation = 500;  // One-way NIC-to-switch time, ns.
  SimDuration switch_latency = 300;    // Cut-through switch hop, ns.

  // --- RNIC (ConnectX-6 class) --------------------------------------------
  // Per-work-request processing in the NIC pipeline. Together with the DNE
  // post/poll costs below these compose to the 8.4 us 64 B two-sided echo RTT
  // of Fig. 12.
  SimDuration rnic_wr_tx = 600;
  SimDuration rnic_wr_rx = 600;
  // Effective per-byte cost at each RNIC for a single-QP, unbatched verbs
  // stream (PCIe DMA + payload handling). Calibrated so 64 B -> 4 KB moves the
  // two-sided echo RTT from 8.4 us to ~11.6 us (Fig. 12).
  double rnic_per_byte_ns = 0.175;
  // RC QP context cache: misses force an ICM fetch over PCIe. Drives the
  // "too many active QPs thrash the NIC cache" behaviour (sections 2.1, 3.3).
  int rnic_qp_cache_entries = 64;
  SimDuration rnic_qp_cache_miss = 1600;
  // Receiver-not-ready retry backoff when no receive buffer is posted.
  SimDuration rnic_rnr_backoff = 20 * kMicrosecond;
  // Local ACK timeout (RC transport retransmit budget collapsed to one
  // deadline): a payload-carrying WR whose packet or ACK is lost in the
  // fabric completes locally with kTransportError — failed, not hung — so
  // its buffer recycles and the retry layer can re-send. Far above any
  // legitimate simulated RTT (microseconds).
  SimDuration rnic_ack_timeout = 5 * kMillisecond;
  // RC connection establishment: "of the order of tens of milliseconds"
  // (section 3.3, citing [59, 96]).
  SimDuration rc_connect_cost = 20 * kMillisecond;
  // Activating / deactivating a pooled shadow QP (no cross-node sync, [55]).
  SimDuration qp_activate_cost = 2 * kMicrosecond;
  // Control-plane verbs as first-class costs (Swift: the QP lifecycle, not
  // just the handshake, bottlenecks elastic tenants). Creation allocates the
  // QP context (ICM) and buffers; each state transition (INIT -> RTR -> RTS,
  // three modifies per RC setup) is a driver round trip; destroy tears the
  // context out of the NIC. These serialize on the issuing CPU, while the
  // rc_connect_cost handshake round trip pipelines across a batch.
  SimDuration qp_create_verb = 35 * kMicrosecond;
  SimDuration qp_modify_verb = 10 * kMicrosecond;
  SimDuration qp_destroy_verb = 25 * kMicrosecond;

  // --- DPU (BlueField-2: 8 Armv8 A72 cores, up to 2.5 GHz) -----------------
  // Wimpy-core penalty vs the host Xeon (2.4-3.7 GHz, wider issue): a job
  // costing T host-CPU time costs dpu_speed_factor * T on a DPU core.
  double dpu_speed_factor = 2.0;
  // SoC DMA engine: 2.6 us for a 64 B read (section 4.1.1, citing [95]) and
  // poor throughput under concurrency -- the reason on-path offloading loses.
  SimDuration soc_dma_base = FromUs(2.6);
  double soc_dma_gbps = 24.0;

  // --- DNE / CNE engine op costs (host-CPU time; DPU scales them) ----------
  // With dpu_speed_factor 2.0 these compose to the 8.4 us two-sided 64 B echo
  // RTT between two single-core DNEs (Fig. 12): one way =
  //   (tx_stage + loop + sched) * 2 + rnic_wr_tx + wire + rnic_wr_rx
  //   + (rx_stage + loop) * 2  ~=  4.4 us.
  SimDuration dne_tx_stage = 380;   // Consume descriptor, route, wrap WR, post.
  SimDuration dne_rx_stage = 330;   // Poll CQE, RBR lookup, forward descriptor.
  SimDuration dne_sched_op = 60;    // One DWRR/FCFS scheduling decision.
  SimDuration dne_loop_iteration = 80;  // Run-to-completion loop base cost.

  // --- Cross-processor communication channel (DOCA Comch, section 3.5.4) ---
  // Comch-E: event-driven send/receive over blocking epoll. No pinned cores;
  // 2.7-3.8x lower descriptor-echo latency than the TCP baseline (Fig. 9).
  SimDuration comch_e_host_send = 600;   // Function-side send + doorbell.
  SimDuration comch_e_host_recv = 1200;  // Function-side epoll sleep/wake + recv.
  SimDuration comch_e_dpu_side = 500;    // DNE-side event handling (host time).
  SimDuration comch_e_channel = 900;     // PCIe message write + completion.
  // Comch-P: producer-consumer ring with busy polling; lowest latency (>8x
  // better than TCP) but one pinned host core per function, and the DOCA
  // progress engine internally epoll_waits per endpoint, which saturates the
  // single-core DNE beyond ~6 functions (Fig. 9).
  SimDuration comch_p_host_side = 150;
  SimDuration comch_p_dpu_side = 120;
  SimDuration comch_p_channel = 350;
  SimDuration comch_p_progress_sweep_per_endpoint = 80;  // epoll_wait overhead.
  // TCP-over-PCIe-netdev baseline for descriptor exchange (kernel both sides).
  SimDuration comch_tcp_host_side = 4500;
  SimDuration comch_tcp_dpu_side = 3000;  // Host time; runs scaled on DPU core.
  SimDuration comch_tcp_channel = 2000;

  // --- Intra-node IPC (eBPF SK_MSG, section 3.5.3) -------------------------
  SimDuration skmsg_send = 900;        // Socket send + eBPF verdict.
  SimDuration skmsg_deliver = 1100;    // Wakeup + descriptor receive.
  // Interrupt-driven receive cost charged to a *shared engine core* per
  // message; grows effective load on the CNE at high concurrency ([72],
  // section 4.3: SK_MSG interrupt load throttles the CNE).
  SimDuration skmsg_engine_irq = 1000;
  SimDuration token_post_cost = 400;   // sem_post + futex wake.

  // --- Host TCP/IP stacks (section 3.6, 4.1.3) ------------------------------
  // Kernel stack: interrupt-driven; per-message costs include syscall, softirq
  // and socket copies.
  SimDuration ktcp_rx = 8 * kMicrosecond;
  SimDuration ktcp_tx = 6 * kMicrosecond;
  SimDuration ktcp_irq_per_msg = 3 * kMicrosecond;
  double ktcp_per_byte_ns = 0.55;  // Socket copy in/out.
  // F-stack (DPDK userspace stack, busy-polling): far cheaper per message.
  SimDuration fstack_rx = FromUs(2.0);
  SimDuration fstack_tx = FromUs(1.5);
  double fstack_per_byte_ns = 0.25;
  // HTTP processing (NGINX-class): terminating parse vs full proxy pass.
  SimDuration http_parse = FromUs(2.0);
  SimDuration http_proxy_request = FromUs(6.0);   // Upstream mgmt, header rewrite.
  SimDuration http_proxy_response = FromUs(4.0);
  // External client <-> ingress Ethernet RTT contribution (separate switch).
  SimDuration client_wire_one_way = FromUs(5.0);

  // --- Native verbs usage (Fig. 6 baselines: functions drive QPs directly) --
  SimDuration native_post = 300;  // ibv_post_send from application code.
  SimDuration native_poll = 250;  // ibv_poll_cq + completion handling.

  // --- One-sided RDMA workarounds (Fig. 3 / Fig. 12) ------------------------
  // Receiver-side arrival polling for one-sided writes (FaRM-style).
  SimDuration owrc_poll_iteration = 250;   // Scan cost per poll loop pass.
  SimDuration owrc_poll_interval = 1000;   // Mean detection latency contribution.
  // FUYAO engine per-message costs (beyond the generic stage costs): remote
  // slot/credit management on TX, slot reclamation + dispatch on RX.
  SimDuration fuyao_relay_tx = 3500;
  SimDuration fuyao_rx_handling = 3000;
  // Junction: per-message overhead of its userspace scheduling + stack
  // interaction on the receive path (section 4.3: kernel-bypass but still
  // software transport, duplicated per inter-function message).
  SimDuration junction_rx_overhead = 2000;
  // Kernel receive livelock ([72]): under backlog, interrupt handling steals
  // progressively more CPU from the interrupt-driven ingress; the effective
  // per-message IRQ cost grows by irq * queue_depth / this divisor.
  int ktcp_livelock_depth_divisor = 4;
  // Distributed lock service: manager processing per acquire/release.
  // Calibrated so the OWDL echo lands near the paper's 26.1 us at 4 KB.
  SimDuration dlock_manager_op = 2000;

  // --- NIC-resident WR programs (RedN-style triggered/conditional WRs) ------
  // A recv completion waking a posted WR program: the RNIC recognizes the
  // CQE, matches the WAIT WR, and enables the chained steps. RedN measures
  // self-triggering at single-microsecond scale on ConnectX-class NICs.
  SimDuration wrprog_trigger = 1200;
  // Evaluating one conditional (CAS-gated) edge against the arrived header.
  SimDuration wrprog_cond = 500;
  // Installing one WR of a program at a QP: WQE write + doorbell, charged at
  // compile/install time on the installing core, never on the data path.
  SimDuration wrprog_install_per_wr = 800;

  // --- Ingress autoscaler (section 3.6) -------------------------------------
  double ingress_scale_up_util = 0.60;
  double ingress_scale_down_util = 0.30;
  SimDuration ingress_autoscale_period = 500 * kMillisecond;
  SimDuration ingress_worker_restart = 120 * kMillisecond;  // Brief interruption.

  // Returns the model used throughout the evaluation; tweak copies for
  // ablations.
  static const CostModel& Default();

  // Scales a host-CPU-time cost for execution on a DPU core.
  SimDuration OnDpu(SimDuration host_cost) const {
    return static_cast<SimDuration>(static_cast<double>(host_cost) * dpu_speed_factor + 0.5);
  }

  // Conservative-PDES lookahead for the parallel shard drain (DESIGN.md
  // §3h): the cheapest way any event can cross from one node's shard to
  // another is either a fabric hop (propagation out + switch + propagation
  // in, before any RNIC processing) or — for host<->DPU shard splits — the
  // Comch-P PCIe channel write. No cross-shard delivery modelled anywhere in
  // the cost model undercuts this floor, so shards drained in parallel up to
  // global_min + MinCrossShardDelay() can never miss a remote event.
  SimDuration MinCrossShardDelay() const {
    const SimDuration fabric = 2 * link_propagation + switch_latency;
    return fabric < comch_p_channel ? fabric : comch_p_channel;
  }
};

}  // namespace nadino

#endif  // SRC_CORE_CALIBRATION_H_
