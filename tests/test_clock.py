from chroma import VirtualClock, WallClock


def test_virtual_tick_of_n_is_n_single_ticks_and_returns_now():
    batched, single = VirtualClock(), VirtualClock()
    for n in (1, 3, 10, 1):
        got = batched.tick(n)
        for _ in range(n):
            single.tick()
        assert batched.evaluations == single.evaluations
        assert got == batched.now() == single.now()
    assert batched.tick() == batched.now() == 16 * 0.001


def test_wall_tick_returns_the_time():
    clock = WallClock()
    before = clock.now()
    assert clock.tick() >= before
    assert clock.tick(10) >= before
