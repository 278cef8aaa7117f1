ACCEPTANCE_LINES = []


def sigma_orbits(inst):
    """The forward-step orbits of ``inst``, each followed by ``inst.sigma`` from its first copy in ``copies()``."""
    seen, orbits = set(), []
    for z in inst.copies():
        if z in seen:
            continue
        orbit = [z]
        while (nxt := inst.sigma(orbit[-1])) != z:
            orbit.append(nxt)
        seen.update(orbit)
        orbits.append(orbit)
    return orbits


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
