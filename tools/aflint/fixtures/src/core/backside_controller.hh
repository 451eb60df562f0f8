/**
 * @file
 * AF013 seeds, backside direction: a backside controller that names
 * the flash device and the frontside directly instead of going
 * through bc_to_flash / flash::FlashFabric and the facade's page-ready
 * hook. Never compiled.
 */

#ifndef AFLINT_FIXTURE_BACKSIDE_CONTROLLER_HH
#define AFLINT_FIXTURE_BACKSIDE_CONTROLLER_HH

namespace fixture {

class FlashDevice;
class FrontsideController;

struct BacksideController {
    // AF013: issuing flash reads by device pointer bypasses
    // bc_to_flash and the flash::FlashFabric.
    FlashDevice *flash = nullptr;

    // AF013: waking the frontside by direct call bypasses the
    // facade's page-ready hook.
    void notify(FrontsideController &fc);
};

} // namespace fixture

#endif // AFLINT_FIXTURE_BACKSIDE_CONTROLLER_HH
