//! Crowdsourcing analysis: generate the synthetic deployment dataset and
//! print the per-ISP and per-app findings of §4.2 (Tables 5 and 6, the Jio
//! and WhatsApp case studies).
//!
//! Run with `cargo run --release --example isp_report`.

use mopeye::analytics::{CaseJio, CaseWhatsapp, Table5Apps, Table6IspDns};
use mopeye::dataset::{DatasetSpec, SyntheticDataset};

fn main() {
    let dataset = SyntheticDataset::generate(DatasetSpec { seed: 1, scale: 0.01 });
    println!(
        "synthetic deployment: {} measurements from {} devices\n",
        dataset.store.len(),
        dataset.store.counts_per_device().len()
    );

    println!("Table 5 — representative apps (median RTT, ms):");
    for (category, package, count, median, paper) in &Table5Apps::compute(&dataset).rows {
        println!(
            "  {category:<14} {package:<44} n={count:<6} median={median:>6.1} (paper {paper:>5.1})"
        );
    }

    println!("\nTable 6 — LTE operators (median DNS RTT, ms):");
    for (isp, country, count, median, paper) in &Table6IspDns::compute(&dataset).rows {
        println!(
            "  {isp:<14} {country:<10} n={count:<6} median={median:>6.1} (paper {paper:>5.1})"
        );
    }

    let whatsapp = CaseWhatsapp::compute(&dataset);
    println!(
        "\nCase 1 — WhatsApp: {} whatsapp.net domains; SoftLayer median {:.0} ms vs CDN {:.0} ms",
        whatsapp.domains_observed, whatsapp.softlayer_median_ms, whatsapp.cdn_median_ms
    );

    let jio = CaseJio::compute(&dataset);
    println!(
        "Case 2 — Jio: app median {:.0} ms but DNS median {:.0} ms → the bottleneck is the LTE core, \
         not the servers ({} of {} shared domains are faster on other LTE networks).",
        jio.app_median_ms, jio.dns_median_ms, jio.domains_better_off_jio, jio.domains_compared
    );
}
