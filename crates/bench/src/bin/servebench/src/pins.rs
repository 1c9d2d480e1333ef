//! Per-tenant final reply chains of one full-size repetition of each
//! workload at `--seed 42`. A change that alters any reply breaks them;
//! so does a change to a workload's inputs or batch count, which must
//! re-pin them.

pub const SEED: u64 = 42;

pub fn chains(workload: &str) -> Option<&'static [u64]> {
    Some(match workload {
        "bulk-fit" => &[0xc83a_8ecf_fa82_ba95, 0xe511_bdc2_3726_f423],
        "thrash-randpar" => &[0x086b_d2b1_8ee7_cc3d, 0xcc82_8eae_fa99_31f3],
        "monitor-ucp" => &[0x655e_d32b_8a55_4750, 0xc9e5_3aa8_7040_bb43],
        "tiny-batches" => &[0x88fa_72e7_6a25_24a3, 0x281b_84c0_ee34_ff48],
        "recovery" => &[0x1dc7_e857_57b4_449d],
        "paced-mixed" => &[0xec3b_126e_c36b_7286, 0xee89_729a_0536_3b18],
        _ => return None,
    })
}
