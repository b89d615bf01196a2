//! Fault sweep — graceful degradation under a lossy channel (robustness
//! extension; no counterpart in the paper, which assumes reliable links).
//!
//! Sweeps the message loss rate over {0, 1%, 5%, 10%, 25%} and reports, for
//! SRB (hardened with leases + retransmission) and PRD(0.1):
//!
//! - monitoring accuracy — how gracefully each scheme degrades;
//! - communication cost charged on *sent* messages (retransmissions and
//!   lost uplinks are paid for even when they never arrive);
//! - the recovery traffic itself: retransmissions, lease probes, regrants.
//!
//! The zero-loss row still pays for the lease (the server probes every
//! client it has not heard from for a lease period even when nothing was
//! lost) — it measures the *insurance premium* of hardening, not the paper
//! configuration. With `lease: None` on the ideal channel the fault path
//! is completely inert and the paper figures are reproduced bit-for-bit.

use srb_bench::{base_config, figure_header, json_row, run_row};
use srb_mobility::RetryPolicy;
use srb_sim::{ChannelConfig, Scheme, SimConfig};

fn main() {
    let base = SimConfig {
        lease: Some(1.0),
        retry: RetryPolicy { timeout: 0.1, max_retries: 6 },
        ..base_config()
    };
    figure_header("Fault sweep", "accuracy and cost vs message loss rate", &base);
    println!(
        "    lease={:?} retry_timeout={} max_retries={}",
        base.lease, base.retry.timeout, base.retry.max_retries
    );
    let losses = [0.0, 0.01, 0.05, 0.10, 0.25];

    println!("\n-- accuracy and sent-cost vs loss; SRB hardened (lease + retry), PRD raw --");
    for &loss in &losses {
        let cfg = SimConfig { channel: ChannelConfig::lossy(loss), ..base };
        println!("\nloss = {loss}");
        for (label, scheme) in [("SRB", Scheme::Srb), ("PRD(0.1)", Scheme::Prd(0.1))] {
            let m = run_row(label, scheme, &cfg);
            println!(
                "{:<18} sent={:>8}  retrans={:>6}  drops={:>6}  stale_seq={:>5}  lease_probes={:>5}  regrants={:>5}",
                "", m.uplinks_sent, m.retransmissions, m.channel_drops, m.stale_seq_drops,
                m.lease_probes, m.regrants
            );
            json_row("fault_sweep", label, loss, &m);
        }
    }
}
