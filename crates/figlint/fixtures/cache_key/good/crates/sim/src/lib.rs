pub struct Config {
    pub channels: u32,
    pub sched: u32,
    pub free_reloc: bool,
    pub verbose: bool,
}

pub fn cache_key(c: &Config) -> String {
    let ablation = if c.free_reloc { "-freereloc" } else { "" };
    format!("ch{}-s{}{}", c.channels, c.sched, ablation)
}
