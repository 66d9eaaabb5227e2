#include "harness/config.hh"

#include "sim/logging.hh"

namespace barre
{

std::string
to_string(TranslationMode m)
{
    switch (m) {
      case TranslationMode::baseline:
        return "baseline";
      case TranslationMode::valkyrie:
        return "Valkyrie";
      case TranslationMode::least:
        return "Least";
      case TranslationMode::barre:
        return "Barre";
      case TranslationMode::fbarre:
        return "F-Barre";
    }
    barre_panic("unknown mode");
}

SystemConfig
configForMode(const std::string &name)
{
    if (name == "baseline")
        return SystemConfig::baselineAts();
    if (name == "valkyrie")
        return SystemConfig::valkyrieCfg();
    if (name == "least")
        return SystemConfig::leastCfg();
    if (name == "barre")
        return SystemConfig::barreCfg();
    if (name == "fbarre")
        return SystemConfig::fbarreCfg();
    if (name == "fbarre4")
        return SystemConfig::fbarreCfg(4);
    barre_fatal("unknown mode '%s'", name.c_str());
}

SystemConfigHandle
freezeConfig(SystemConfig cfg)
{
    cfg.normalize();
    return std::make_shared<const SystemConfig>(std::move(cfg));
}

void
SystemConfig::normalize()
{
    chiplet.cus = cus_per_chiplet;
    chiplet.page_size = page_size;
    migration.page_bytes = pageBytes(page_size);

    // Barre and F-Barre coalesce; only Valkyrie probes sibling L1s.
    const bool barre_mode =
        mode == TranslationMode::barre || mode == TranslationMode::fbarre;
    driver.barre = barre_mode;
    iommu.barre = barre_mode;
    chiplet.sibling_l1_probe = mode == TranslationMode::valkyrie;
    if (mode == TranslationMode::barre) {
        driver.merge_limit = 1;
        iommu.coal_aware_sched = false;
    }
    if (mode == TranslationMode::fbarre)
        fbarre.merge_width = driver.merge_limit;
    iommu.merge_width = driver.merge_limit;
    gmmu.barre = iommu.barre;
}

SystemConfig
SystemConfig::baselineAts()
{
    SystemConfig cfg;
    cfg.mode = TranslationMode::baseline;
    return cfg;
}

SystemConfig
SystemConfig::valkyrieCfg()
{
    SystemConfig cfg;
    cfg.mode = TranslationMode::valkyrie;
    return cfg;
}

SystemConfig
SystemConfig::leastCfg()
{
    SystemConfig cfg;
    cfg.mode = TranslationMode::least;
    return cfg;
}

SystemConfig
SystemConfig::barreCfg()
{
    SystemConfig cfg;
    cfg.mode = TranslationMode::barre;
    return cfg;
}

SystemConfig
SystemConfig::fbarreCfg(std::uint32_t merge_limit)
{
    SystemConfig cfg;
    cfg.mode = TranslationMode::fbarre;
    cfg.driver.merge_limit = merge_limit;
    cfg.iommu.coal_aware_sched = true;
    cfg.fbarre.peer_sharing = true;
    return cfg;
}

} // namespace barre
