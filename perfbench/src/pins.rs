//! Pinned FNV-1a digests of each workload's JSON+CSV reports, one per
//! input set, kept in `pins.txt` as `<workload> <input set> <digest>`
//! lines. Regenerate the file with `perfbench --print-pins > pins.txt`
//! after a change that is meant to alter the reports.

const PINS: &str = include_str!("../pins.txt");

/// The pinned digest of `workload` on input set `input_seed`.
pub fn lookup(workload: &str, input_seed: u64) -> Option<u64> {
    PINS.lines().find_map(|line| {
        let mut fields = line.split_whitespace();
        let (w, s, d) = (fields.next()?, fields.next()?, fields.next()?);
        (w == workload && s.parse() == Ok(input_seed))
            .then(|| u64::from_str_radix(d.trim_start_matches("0x"), 16).ok())
            .flatten()
    })
}
