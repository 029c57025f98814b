// Umbrella header for the OpenMP target-offloading runtime emulation.
#pragma once

#include "omp/api.h"
#include "omp/device_rt.h"
#include "omp/mapping.h"
#include "omp/target.h"
