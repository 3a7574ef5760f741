//! Outputs pinned for the default seed. The simulated outputs are
//! deterministic, so any difference is a behaviour change; every run on
//! the default seed checks its results against these values.

/// Per `simulate` call of a fleet pass, in call order (AlwaysOn,
/// ZombieStack, ZombieStack on the modified trace): energy bits,
/// migrations, wake-ups, events, dropped arrivals.
pub const FLEET: [[u64; 5]; 3] = [
    [4738873594426778871, 0, 0, 64328, 0],
    [4738024526330829835, 787, 1529, 64328, 0],
    [4738861713174850823, 1879, 1472, 64328, 0],
];

/// Per paging cell, in grid order (guest, then policy FIFO / Clock /
/// Mixed, then 20 / 30 / 40 % local): exec time in ns, remote faults,
/// minor faults, demotions, clean demotions, pages dirtied.
pub const PAGING: [[u64; 6]; 18] = [
    [131512128, 27722, 7858, 33668, 23442, 2984],
    [105816965, 20022, 7858, 25012, 15291, 2731],
    [85958591, 14148, 7858, 18183, 8987, 2530],
    [125661231, 25490, 7858, 31436, 21825, 2473],
    [100444462, 18161, 7858, 23151, 14060, 2252],
    [81255797, 12639, 7858, 16674, 8122, 2080],
    [125667230, 25492, 7858, 31438, 21827, 2473],
    [100450626, 18162, 7858, 23152, 14059, 2254],
    [81263270, 12641, 7858, 16676, 8123, 2080],
    [354808878, 76733, 8192, 83013, 30443, 50400],
    [323301479, 68869, 8192, 74193, 25092, 47747],
    [290906873, 60840, 8192, 65209, 19777, 44915],
    [359706075, 76936, 8192, 83216, 30733, 50344],
    [327900112, 69202, 8192, 74526, 25626, 47592],
    [295782768, 61456, 8192, 65825, 20743, 44659],
    [359706075, 76936, 8192, 83216, 30733, 50344],
    [327893358, 69200, 8192, 74524, 25624, 47592],
    [295779312, 61454, 8192, 65823, 20739, 44659],
];
