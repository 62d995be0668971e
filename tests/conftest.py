from hypothesis import settings

# exact arithmetic on drawn heights and exponents takes from microseconds to
# seconds an example, so no property test has a deadline
settings.register_profile("superfiber", deadline=None)
settings.load_profile("superfiber")
