/**
 * @file
 * AF013 seeds: a frontside controller that reaches around the
 * DramCache facade. Lives at the controller's canonical fixture-local path so the
 * path-scoped rule engages when scanned with
 * `aflint --root tools/aflint/fixtures src`. Never compiled.
 */

#ifndef AFLINT_FIXTURE_FRONTSIDE_CONTROLLER_HH
#define AFLINT_FIXTURE_FRONTSIDE_CONTROLLER_HH

namespace fixture {

class BacksideController;
class EvictBuffer;

struct FrontsideController {
    // AF013: the frontside holding a backside reference is a direct
    // call path around the facade.
    BacksideController *bc = nullptr;

    // AF013: peeking into the backside-owned evict buffer.
    bool probe(const EvictBuffer &buf) const;
};

} // namespace fixture

#endif // AFLINT_FIXTURE_FRONTSIDE_CONTROLLER_HH
