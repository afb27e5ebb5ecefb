#[test]
fn slow_tier_is_opt_in() {
    let _ = std::env::var("FIGARO_SLOW");
}
