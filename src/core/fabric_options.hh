/**
 * @file
 * Shared CLI binding for the shard/fabric knobs.
 *
 * Every binary that builds a System (astriflash_sim, the figure
 * benches, the ablation) exposes the same four flags:
 *
 *   --bc-shards=N       backside-controller shards
 *   --flash-devices=M   flash devices behind the fabric
 *   --flash-backend=K   concrete device model ("ftl" or "zns")
 *
 * This helper holds the parsed values (defaulted from the config
 * structs so the flags are optional), registers the flags on a
 * sim::OptionParser, and applies them onto a SystemConfig. The
 * backend is kept as flash::BackendKind throughout — core code never
 * names a concrete device type (aflint AF014).
 */

#ifndef ASTRIFLASH_CORE_FABRIC_OPTIONS_HH
#define ASTRIFLASH_CORE_FABRIC_OPTIONS_HH

#include <cstdint>
#include <string>

#include "flash/backend.hh"
#include "sim/option_parser.hh"

#include "system_config.hh"

namespace astriflash::core {

/** Parsed --bc-shards / --flash-devices / --flash-backend values. */
struct FabricOptions {
    std::uint32_t bcShards = BcConfig{}.shards;
    std::uint32_t flashDevices = flash::FlashFabricConfig{}.devices;
    flash::BackendKind flashBackend =
        flash::FlashFabricConfig{}.backend;

    /** Register the three flags on @p opts. */
    void
    addTo(sim::OptionParser &opts)
    {
        opts.addUint32("bc-shards", &bcShards,
                       "backside-controller shards (page-interleaved)");
        opts.addUint32("flash-devices", &flashDevices,
                       "flash devices striped behind the fabric");
        opts.addCustom(
            "flash-backend", "KIND",
            "flash device model: ftl | zns",
            [this](const std::string &value) {
                return flash::parseBackendKind(value, &flashBackend);
            });
    }

    /** Copy the parsed values into @p cfg. */
    void
    apply(SystemConfig &cfg) const
    {
        cfg.dramCache.bc.shards = bcShards;
        cfg.dramCache.fabric.devices = flashDevices;
        cfg.dramCache.fabric.backend = flashBackend;
    }
};

} // namespace astriflash::core

#endif // ASTRIFLASH_CORE_FABRIC_OPTIONS_HH
