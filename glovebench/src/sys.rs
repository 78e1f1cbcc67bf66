//! Process memory readings and the digest of published output.

use glove_core::Dataset;
use std::io::Write;

/// Resets the process high-water mark (`VmHWM`) to the current resident
/// size, so the next [`peak_rss_mb`] covers only what runs after the reset.
/// Returns false where the kernel does not allow it; the peak then covers
/// input generation too.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Process high-water resident set size, MB (0 where `/proc` is absent).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// 64-bit FNV-1a over everything written to it: the digest of a rendered
/// release, computed while rendering so no text is kept.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    /// The empty digest.
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Write for Fnv {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        for &b in buf {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Renders `dataset` through the CLI's text writer (what `glove anonymize`
/// and `glove stream` write to disk) and returns the digest of the text.
pub fn render_digest(dataset: &Dataset) -> u64 {
    let mut h = Fnv::new();
    glove_cli::io::write_to(dataset, &mut h).expect("hashing cannot fail");
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        let mut h = Fnv::new();
        h.write_all(b"a").unwrap();
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::new();
        h.write_all(b"foobar").unwrap();
        assert_eq!(h.0, 0x8594_4171_f739_67e8);
    }

    #[test]
    fn peak_rss_is_readable() {
        assert!(peak_rss_mb() > 0.0);
    }
}
