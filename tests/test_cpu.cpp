/**
 * @file
 * Tests for the core's switch-on-miss cost model.
 */

#include <gtest/gtest.h>

#include "cpu/ooo_config.hh"

using namespace astriflash::cpu;

TEST(OoOConfig, FlushCostScalesWithRob)
{
    OoOConfig small;
    small.robEntries = 64;
    OoOConfig large;
    large.robEntries = 256;
    EXPECT_LT(small.robFlushCost(), large.robFlushCost());
    EXPECT_GT(small.robFlushCost(), 0u);
}
