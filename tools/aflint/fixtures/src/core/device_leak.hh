/**
 * @file
 * AF014 seeds: core-layer code that names the flash device model or
 * its FTL instead of going through flash::FlashFabric.
 * Never compiled.
 */

#ifndef AFLINT_FIXTURE_DEVICE_LEAK_HH
#define AFLINT_FIXTURE_DEVICE_LEAK_HH

namespace fixture {

class FlashDevice;
class Ftl;

struct CacheFacade {
    // AF014: holding one device pins the cache to it; the facade
    // must hold a flash::FlashFabric &.
    FlashDevice *ftlDev = nullptr;

    // AF014: reaching past the device into its mapping layer.
    Ftl *mapping = nullptr;
};

} // namespace fixture

#endif // AFLINT_FIXTURE_DEVICE_LEAK_HH
