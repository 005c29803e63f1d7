"""Puts this checkout's package source on the path for the self-tests."""
import run

run.import_package()
