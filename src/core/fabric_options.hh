/**
 * @file
 * Shared CLI binding for the shard/fabric knobs.
 *
 * Every binary that builds a System (astriflash_sim, the figure
 * benches, the ablation) exposes the same three flags:
 *
 *   --bc-shards=N       backside-controller shards
 *   --flash-devices=M   flash devices behind the fabric
 *   --flash-backend=K   device kind ("ftl" or "zns"), which names
 *                       the FTL's stats "ftl.*" or "log.*"
 *
 * This helper holds the parsed values (defaulted from the config
 * structs so the flags are optional), registers the flags on a
 * sim::OptionParser, and applies them onto a SystemConfig. The kind
 * is kept as flash::BackendKind throughout; core code reaches storage
 * only through flash::FlashFabric (aflint AF014).
 */

#ifndef ASTRIFLASH_CORE_FABRIC_OPTIONS_HH
#define ASTRIFLASH_CORE_FABRIC_OPTIONS_HH

#include <cstdint>
#include <string>

#include "flash/flash_config.hh"
#include "sim/option_parser.hh"

#include "system_config.hh"

namespace astriflash::core {

/** Parsed --bc-shards / --flash-devices / --flash-backend values. */
struct FabricOptions {
    std::uint32_t bcShards = BcConfig{}.shards;
    std::uint32_t flashDevices = flash::FlashFabricConfig{}.devices;
    flash::BackendKind flashBackend =
        flash::FlashFabricConfig{}.backend;

    /** Register the three flags on @p opts. Zero shards or devices
     *  is a parse error, not a fatal in a constructor. */
    void
    addTo(sim::OptionParser &opts)
    {
        const auto positive = [](std::uint32_t n) { return n > 0; };
        opts.addUint32("bc-shards", &bcShards,
                       "backside-controller shards (page-interleaved)",
                       positive);
        opts.addUint32("flash-devices", &flashDevices,
                       "flash devices striped behind the fabric",
                       positive);
        opts.addCustom(
            "flash-backend", "KIND",
            "flash device kind (names its FTL stats): ftl | zns",
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
