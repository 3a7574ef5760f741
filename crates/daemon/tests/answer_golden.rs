//! Pins the daemon's answers: an FNV-1a digest of the wire bytes of
//! every `ClusterModel::apply` response over the replay client's seeded
//! request mix, at the 24-host default and at a 2,000-host fleet.
//!
//! A change to any answer — a buffer id, an `mr_key`, an error class,
//! a decision time — moves the digest. To re-pin after an intentional
//! answer change, run this test and copy the digest it reports.

use zombieland_core::codec::encode_response;
use zombieland_daemon::model::{ClusterModel, ModelConfig};
use zombieland_daemon::replay::gen_op;
use zombieland_simcore::{derive_seed, DetRng};

/// Digest of `requests` answers from a model of `servers` hosts (boot
/// seed 11) to the first replay client's stream of seed 11.
fn answers_digest(servers: u32, requests: u64) -> u64 {
    let mut model = ClusterModel::boot(ModelConfig::new(servers, 11));
    let mut rng = DetRng::new(derive_seed(11, 0));
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for _ in 0..requests {
        let op = gen_op(&mut rng, servers);
        for b in encode_response(&model.apply(&op)) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn answers_at_24_hosts_match_golden() {
    let d = answers_digest(24, 20_000);
    assert_eq!(d, 0xa564_ddb6_b6c8_a159, "digest {d:#018x}");
}

#[test]
fn answers_at_2000_hosts_match_golden() {
    let d = answers_digest(2_000, 1_500);
    assert_eq!(d, 0x5839_f77a_8361_c2cc, "digest {d:#018x}");
}
