//! Pins the text of every experiment at `--quick` (seed `0xC0FFEE`) by
//! digest, and checks that every claim holds there. E11's `Mreq/s`
//! columns are wall-clock and are left out of its pin; its `requests` and
//! `grants` columns stay pinned. The quick set runs as one test, about
//! ten seconds in a debug build.

use parapage::cache::digest64;
use parapage_bench::experiments::{Opts, DEFAULT_SEED, EXPERIMENTS};

const PINS: [(&str, u64); 16] = [
    ("e1", 0xd65a_51d2_6502_1b41),
    ("e2", 0x5cee_f52c_d7c6_90c6),
    ("e3", 0x1c22_d3be_0b6a_62b6),
    ("e4", 0x5a82_d931_3656_0a45),
    ("e5", 0xfa9b_edb0_4e08_3f1c),
    ("e6", 0x1d2b_0117_a4c4_0aa2),
    ("e7", 0x37d8_4233_b6ae_d248),
    ("e8", 0x2181_0c95_7b3a_d5eb),
    ("e9", 0x5261_cd80_7f4b_aef0),
    ("e10", 0x5e61_8e66_918f_5f7c),
    ("e11", 0x4a7c_5760_ef64_0a8e),
    ("e12", 0x723d_c61d_234c_3c93),
    ("e13", 0xc2de_06b6_3198_7835),
    ("e14", 0x94ca_ec4f_553a_92f8),
    ("e15", 0xd5e2_7534_5c12_d215),
    ("e16", 0xd6ed_c55b_365b_0bfb),
];

/// The text a pin covers: E11's table keeps `p`, `requests` and `grants`
/// per row, and every line loses its run-dependent alignment.
fn pinned(id: &str, text: &str) -> String {
    if id != "e11" {
        return text.to_string();
    }
    let line = |l: &str| {
        let t: Vec<&str> = l.split_whitespace().collect();
        match t.len() == 6 && t[0].parse::<usize>().is_ok() {
            true => format!("{} {} {}\n", t[0], t[1], t[5]),
            false => t.join(" ") + "\n",
        }
    };
    text.lines()
        .filter(|l| !l.starts_with('-'))
        .map(line)
        .collect()
}

#[test]
fn quick_tables_match_their_pins_and_every_claim_holds() {
    let opts = Opts {
        quick: true,
        seed: DEFAULT_SEED,
    };
    let mut failures = Vec::new();
    for (e, (id, pin)) in EXPERIMENTS.iter().zip(PINS) {
        assert_eq!(e.id, id, "the index and the pins are out of step");
        let r = (e.run)(opts);
        if !r.violations.is_empty() {
            failures.push(format!("{id}: {}", r.violations.join("; ")));
        }
        let digest = digest64(pinned(id, &r.text).as_bytes());
        if digest != pin {
            failures.push(format!(
                "{id}: digest {digest:#018x}, pinned {pin:#018x}:\n{}",
                r.text
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
