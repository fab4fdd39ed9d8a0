from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "rtmcloud.wavekernel._stencil",
            sources=["src/rtmcloud/wavekernel/_stencil.c"],
            # No fused multiply-add: fields stay bitwise equal across platforms.
            extra_compile_args=["-O3", "-ffp-contract=off"],
        )
    ]
)
