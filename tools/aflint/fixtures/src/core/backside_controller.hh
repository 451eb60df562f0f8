/**
 * @file
 * AF013 seeds, backside direction: a backside controller that calls
 * the flash device and the frontside directly instead of using the
 * bc_to_flash / bc_to_fc channels. Never compiled.
 */

#ifndef AFLINT_FIXTURE_BACKSIDE_CONTROLLER_HH
#define AFLINT_FIXTURE_BACKSIDE_CONTROLLER_HH

namespace fixture {

class FlashDevice;
class FrontsideController;

struct BacksideController {
    // AF013: issuing flash reads by device pointer bypasses
    // bc_to_flash and the abstract flash::Backend.
    FlashDevice *flash = nullptr;

    // AF013: waking the frontside by direct call bypasses bc_to_fc.
    void notify(FrontsideController &fc);
};

} // namespace fixture

#endif // AFLINT_FIXTURE_BACKSIDE_CONTROLLER_HH
