"""`belldyn.verify`: each row of the oracle suite is a plain function of
inputs drawn once, so it returns the same deviation however it is run."""

from belldyn import cli, verify


def verify_rows():
    return verify.checks(cli.resolve_config(cli.build_parser().parse_args(["verify"])))


def test_each_row_alone_or_in_any_order_gives_the_full_run_deviation():
    full = [run() for _, _, run in verify_rows()]
    alone = [verify_rows()[i][2]() for i in range(len(full))]
    backwards = [run() for _, _, run in reversed(verify_rows())]
    assert alone == full
    assert backwards[::-1] == full

