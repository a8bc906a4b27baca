//! Integration tests asserting that the regenerated experiments have the
//! qualitative shape the paper reports: who wins, by roughly what factor, and
//! where the outliers sit.

use mopeye::analytics::{
    CaseJio, CaseWhatsapp, Fig10Dns, Fig11IspDns, Fig5Mapping, Fig9AppRtt, Table1TunnelWrite,
    Table2Accuracy, Table3Throughput, Table6IspDns,
};
use mopeye::dataset::{DatasetSpec, SyntheticDataset};

#[test]
fn figure5_lazy_mapping_mitigation_is_in_the_paper_band() {
    let fig5 = Fig5Mapping::run(2024);
    // Paper: 67.8 % of 481 connect threads avoided the parse.
    assert!(fig5.mitigation_rate > 0.5 && fig5.mitigation_rate < 0.95);
    // Eager parsing is dominated by multi-millisecond parses (Figure 5a).
    assert!(fig5.before_cdf().median().unwrap() > 5.0);
    // Lazy mapping pushes the bulk of requests to (near) zero overhead.
    assert!(fig5.after_cdf().fraction_at_or_below(1.0) > 0.5);
}

#[test]
fn table1_write_schemes_rank_as_in_the_paper() {
    let t1 = Table1TunnelWrite::run(2024, 3_000);
    let [direct, queue, old_put, new_put] = t1.large_fractions();
    assert!(direct > queue, "directWrite must be worse than queueWrite");
    assert!(old_put > new_put, "oldPut must be worse than newPut");
    // newPut large-overhead rate collapses by more than an order of magnitude
    // relative to oldPut (paper: 5.69 % → 0.075 %).
    assert!(new_put < old_put / 5.0, "oldPut {old_put} newPut {new_put}");
}

#[test]
fn table2_mopeye_is_at_least_an_order_of_magnitude_more_accurate() {
    let t2 = Table2Accuracy::run(2024, 6);
    let mopeye_worst = t2.worst_mopeye_delta();
    let mobiperf_best = t2.best_mobiperf_delta();
    assert!(mopeye_worst <= 1.0, "MopEye worst δ {mopeye_worst}");
    assert!(mobiperf_best / mopeye_worst.max(0.05) > 10.0, "separation too small");
}

#[test]
fn table3_haystack_upload_collapses_but_mopeye_stays_within_a_megabit() {
    let t3 = Table3Throughput::run(2024, 8 * 1024 * 1024);
    let (mop_down, mop_up) = t3.mopeye.delta_from(&t3.baseline);
    let (hay_down, hay_up) = t3.haystack.delta_from(&t3.baseline);
    assert!(mop_down.abs() < 1.5 && mop_up.abs() < 1.5);
    assert!(hay_down > 2.0);
    assert!(hay_up > 3.0 * hay_down, "upload must be hit much harder than download");
}

#[test]
fn crowd_dataset_reproduces_the_section_4_2_findings() {
    let dataset = SyntheticDataset::generate(DatasetSpec { seed: 2024, scale: 0.006 });

    // Figure 9 / 10: WiFi beats cellular, DNS beats app RTTs, 2G is dreadful.
    let fig9 = Fig9AppRtt::compute(&dataset);
    let fig10 = Fig10Dns::compute(&dataset);
    assert!(fig9.wifi.median().unwrap() < fig9.cellular.median().unwrap());
    assert!(fig10.all.median().unwrap() < fig9.all.median().unwrap());
    assert!(fig10.gprs2g.median().unwrap() > 5.0 * fig10.lte.median().unwrap());

    // Table 6 / Figure 11: Singtel fastest, Cricket and U.S. Cellular slowest,
    // with Cricket's floor far above Singtel's fast tail.
    let t6 = Table6IspDns::compute(&dataset);
    let median_of = |name: &str| t6.rows.iter().find(|r| r.0 == name).unwrap().3;
    assert!(median_of("Singtel") < median_of("Verizon"));
    assert!(median_of("Cricket") > median_of("Verizon"));
    let fig11 = Fig11IspDns::compute(&dataset);
    let isp = |name: &str| &fig11.isps.iter().find(|(n, _)| n == name).unwrap().1;
    assert!(isp("Singtel").fraction_at_or_below(10.0) > isp("Verizon").fraction_at_or_below(10.0));
    assert!(isp("Cricket").min().unwrap() > 30.0);

    // Case studies.
    let whatsapp = CaseWhatsapp::compute(&dataset);
    assert!(whatsapp.softlayer_median_ms > 2.0 * whatsapp.cdn_median_ms);
    let jio = CaseJio::compute(&dataset);
    assert!(jio.app_median_ms > 2.5 * jio.dns_median_ms);
    assert!(jio.domains_better_off_jio as f64 >= 0.8 * jio.domains_compared as f64);
}
